// Package fixatomicwrite exercises the atomicwrite analyzer: raw
// os-level file replacement against the sanctioned
// checkpoint.WriteFileAtomic and checkpoint.WriteFileInPlace paths.
package fixatomicwrite

import (
	"os"

	"aft/internal/checkpoint"
)

// RawWrite persists without the atomic discipline.
func RawWrite(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want: atomicwrite: direct os.WriteFile
}

// RawCreate opens a file for direct in-place writing.
func RawCreate(path string) error {
	f, err := os.Create(path) // want: atomicwrite: direct os.Create
	if err != nil {
		return err
	}
	return f.Close()
}

// RawOpenFile overwrites a file in place, outside the slot discipline.
func RawOpenFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644) // want: atomicwrite: direct os.OpenFile
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// RawRename commits a hand-rolled temp file.
func RawRename(tmp, path string) error {
	return os.Rename(tmp, path) // want: atomicwrite: direct os.Rename
}

// Atomic is the sanctioned durable write and is clean.
func Atomic(path string, data []byte) error {
	return checkpoint.WriteFileAtomic(path, data)
}

// InPlace is the sanctioned slot overwrite and is clean.
func InPlace(path string, data []byte) error {
	return checkpoint.WriteFileInPlace(path, data)
}

// ReadBack reads, which the contract does not restrict.
func ReadBack(path string) ([]byte, error) {
	return os.ReadFile(path)
}
