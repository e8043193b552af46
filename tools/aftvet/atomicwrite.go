package main

import (
	"go/ast"
)

// The atomicwrite analyzer enforces the crash-safety contract in
// persistence packages: every durable write goes through one of the two
// sanctioned primitives in internal/checkpoint. WriteFileAtomic (temp
// file in the target directory, write, fsync, rename) leaves either the
// old file or the new one after a kill at any instant, never a torn
// half; WriteFileInPlace (overwrite, truncate, fsync) may tear the file
// it writes, so it is used only on a pair of checksummed slots written
// alternately, where the other slot holds the last acknowledged copy.
// Direct os.WriteFile, os.Create, os.OpenFile and os.Rename calls bypass
// both disciplines and are forbidden; internal/checkpoint itself carries
// the sanctioned os.Rename and os.OpenFile calls behind aftvet:allow
// annotations.

// atomicwriteForbidden are the os functions that perform (or complete)
// a non-atomic file replacement, or open a file for writing in place.
var atomicwriteForbidden = map[string]bool{
	"WriteFile": true,
	"Create":    true,
	"OpenFile":  true,
	"Rename":    true,
}

// runAtomicWrite flags direct file-replacement calls.
func runAtomicWrite(p *Package, report reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" || !atomicwriteForbidden[fn.Name()] {
				return true
			}
			report(call.Pos(), "direct os.%s in a persistence package bypasses the atomic-write discipline; use checkpoint.WriteFileAtomic (or WriteFileInPlace on alternating slots)", fn.Name())
			return true
		})
	}
}
