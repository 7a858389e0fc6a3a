//go:build !amd64

package main

import (
	"bytes"
	"runtime"
	"strconv"
)

// curg returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [...]"). It is the slow portable stand-in for the
// assembly version: correct, but it inflates the traced run's overhead.
func curg() uintptr {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return uintptr(id)
}
