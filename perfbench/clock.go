package main

import (
	_ "unsafe" // for go:linkname
)

// nanotime is the runtime's monotonic clock, the same source the
// library's telemetry probes read. Every sampled latency includes the
// cost of one read of it.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64
