package redundancy

import (
	"errors"
	"testing"

	"aft/internal/voting"
	"aft/internal/xrand"
)

func newTestSwitchboard(t *testing.T) *Switchboard {
	t.Helper()
	farm, err := voting.NewFarm(3, func(v uint64) uint64 { return v })
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSwitchboard(farm, DefaultPolicy(), []byte("replay-test-key"))
	if err != nil {
		t.Fatal(err)
	}
	return sb
}

// TestReplayedResizeRejected is the replay attack: a correctly signed
// request is captured and delivered twice. The first delivery applies;
// the exact replay must be rejected with ErrReplayedNonce and counted.
func TestReplayedResizeRejected(t *testing.T) {
	sb := newTestSwitchboard(t)
	req := SignResize([]byte("replay-test-key"), 5, Raise, 1)

	if err := sb.Apply(req); err != nil {
		t.Fatalf("first delivery rejected: %v", err)
	}
	if sb.Farm().N() != 5 {
		t.Fatalf("farm at %d after resize, want 5", sb.Farm().N())
	}
	err := sb.Apply(req)
	if !errors.Is(err, ErrReplayedNonce) {
		t.Fatalf("replay error = %v, want ErrReplayedNonce", err)
	}
	if sb.Rejected() != 1 {
		t.Fatalf("Rejected() = %d, want 1", sb.Rejected())
	}
	if sb.Resizes() != 1 {
		t.Fatalf("Resizes() = %d, want 1 (replay must not re-apply)", sb.Resizes())
	}
}

// TestStaleNonceRejected covers the out-of-order case: once nonce 7 is
// accepted, any earlier (stale) message — even a never-seen one — is
// refused, so captured messages cannot be re-injected later.
func TestStaleNonceRejected(t *testing.T) {
	sb := newTestSwitchboard(t)
	key := []byte("replay-test-key")

	if err := sb.Apply(SignResize(key, 5, Raise, 7)); err != nil {
		t.Fatalf("nonce 7 rejected: %v", err)
	}
	if err := sb.Apply(SignResize(key, 7, Raise, 3)); !errors.Is(err, ErrReplayedNonce) {
		t.Fatalf("stale nonce error = %v, want ErrReplayedNonce", err)
	}
	if got := sb.LastNonce(); got != 7 {
		t.Fatalf("LastNonce() = %d, want 7", got)
	}
	// A strictly newer nonce is still welcome.
	if err := sb.Apply(SignResize(key, 7, Raise, 8)); err != nil {
		t.Fatalf("nonce 8 rejected after stale attempt: %v", err)
	}
}

// TestForgedResizeRejected keeps the original MAC check intact under the
// new delivery path, and rejections of any cause share the counter.
func TestForgedResizeRejected(t *testing.T) {
	sb := newTestSwitchboard(t)
	req := SignResize([]byte("wrong-key"), 5, Raise, 1)
	if err := sb.Apply(req); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("forged request error = %v, want ErrBadMAC", err)
	}
	// Tampering after signing must also fail.
	good := SignResize([]byte("replay-test-key"), 5, Raise, 1)
	good.NewN = 9
	if err := sb.Apply(good); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered request error = %v, want ErrBadMAC", err)
	}
	if sb.Rejected() != 2 {
		t.Fatalf("Rejected() = %d, want 2", sb.Rejected())
	}
	if sb.Farm().N() != 3 {
		t.Fatalf("farm resized to %d by rejected messages", sb.Farm().N())
	}
}

// TestApplySyncsController asserts an externally applied resize updates
// the controller too, so its next decision starts from the dimensioning
// actually in force.
func TestApplySyncsController(t *testing.T) {
	sb := newTestSwitchboard(t)
	if err := sb.Apply(SignResize([]byte("replay-test-key"), 7, Raise, 1)); err != nil {
		t.Fatal(err)
	}
	if sb.Controller().N() != 7 {
		t.Fatalf("controller at %d after external resize, want 7", sb.Controller().N())
	}
}

// TestApplyRejectsOutOfBandDimensioning: an authenticated request may
// still not push the organ outside the policy band (the campaign
// engine's occupancy buffer is sized by Policy.Max).
func TestApplyRejectsOutOfBandDimensioning(t *testing.T) {
	sb := newTestSwitchboard(t)
	key := []byte("replay-test-key")
	if err := sb.Apply(SignResize(key, 11, Raise, 1)); err == nil {
		t.Fatal("resize above Policy.Max accepted")
	}
	if err := sb.Apply(SignResize(key, 1, Lower, 2)); err == nil {
		t.Fatal("resize below Policy.Min accepted")
	}
	if sb.Rejected() != 2 || sb.Farm().N() != 3 {
		t.Fatalf("rejected=%d farm=%d, want 2 and 3", sb.Rejected(), sb.Farm().N())
	}
}

// TestSelfDeliveryAfterExternalNonceJump: accepting an external message
// with a huge nonce must not wedge the switchboard's own revisions —
// self-issued messages sign with lastNonce+1, sharing the nonce space.
func TestSelfDeliveryAfterExternalNonceJump(t *testing.T) {
	sb := newTestSwitchboard(t)
	if err := sb.Apply(SignResize([]byte("replay-test-key"), 5, Raise, 1<<40)); err != nil {
		t.Fatal(err)
	}
	// Force a controller-issued raise: a no-majority round is critical.
	rng := xrand.New(5)
	var resized bool
	for i := 0; i < 100 && !resized; i++ {
		_, resized = sb.StepFaultyRef(uint64(i), 5, false, false, rng)
	}
	if !resized {
		t.Fatal("controller never resized after external nonce jump")
	}
	if sb.Farm().N() != 7 {
		t.Fatalf("farm at %d after raise, want 7", sb.Farm().N())
	}
	if got := sb.LastNonce(); got != 1<<40+1 {
		t.Fatalf("LastNonce() = %d, want %d", got, uint64(1<<40+1))
	}
}

// TestMaxNonceReserved: the all-ones nonce must be refused — accepting
// it would leave no successor for self-issued revisions (lastNonce+1
// wraps to 0) and wedge the switchboard permanently.
func TestMaxNonceReserved(t *testing.T) {
	sb := newTestSwitchboard(t)
	err := sb.Apply(SignResize([]byte("replay-test-key"), 5, Raise, ^uint64(0)))
	if !errors.Is(err, ErrReplayedNonce) {
		t.Fatalf("max-nonce error = %v, want ErrReplayedNonce", err)
	}
	if sb.Farm().N() != 3 || sb.Rejected() != 1 {
		t.Fatalf("farm=%d rejected=%d after reserved nonce, want 3 and 1",
			sb.Farm().N(), sb.Rejected())
	}
}
