//go:build amd64

package main

// curg returns the address of the calling goroutine's runtime descriptor.
// The traced run uses it to attribute a call at a layer boundary to the
// worker whose sampled operation caused it: layers reach the span shims
// through handles, convenience paths and batch calls alike, and only the
// goroutine identifies the caller across all of them. The address is
// stable for a goroutine's lifetime, which covers every worker's.
func curg() uintptr
