//go:build !linux

package mem

import "unsafe"

// Portable NUMA fallback: one node, no physical placement — the same
// bookkeeping-only split as the mapped-memory fallback, so window
// placement behaves identically everywhere.

func numaNodeIDs() []int { return []int{0} }

func nodeOfCPU(cpu int) int { return 0 }

func numaSupported() bool { return false }

func osBindNode(buf []byte, node int) error { return nil }

func osNodeOfAddr(p unsafe.Pointer) (int, bool) { return 0, false }
