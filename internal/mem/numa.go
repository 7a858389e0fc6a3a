package mem

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"unsafe"
)

// NUMA awareness: every Region places each window's pages on the NUMA
// node of the core expected to allocate from it — window k goes to the
// node of cpu (k mod NumCPU), matching a router whose worker k is pinned
// to instance k (multi.NewHandleOn), so that worker's tree walks and
// payload touches stay node-local.
//
// On Linux the placement is real: node topology is discovered from
// sysfs (/sys/devices/system/node), the preferred-node policy is
// installed with the raw mbind syscall before the commit's first touch
// (first-touch then faults the pages onto that node), and NodeOfAddr
// queries the kernel's actual page placement via get_mempolicy, which is
// what examples/numa asserts against. Everywhere else — non-Linux,
// Linux architectures without wired syscall numbers, single-node
// machines — the same API degrades to a no-op that reports one node, so
// callers never need build tags: the policy bookkeeping (NodeMap) works
// identically, only the physical effect is absent.

// NUMANodes returns the online NUMA node ids, smallest first. Platforms
// without discoverable topology report a single node 0.
func NUMANodes() []int { return append([]int(nil), numaNodeIDs()...) }

// NodeOfCPU returns the NUMA node a cpu belongs to (0 when unknown).
func NodeOfCPU(cpu int) int { return nodeOfCPU(cpu) }

// NUMAAware reports whether this platform can physically place pages
// (Linux with wired mbind/get_mempolicy syscalls); when false, the
// policy is bookkeeping only, exactly like the Mapped() fallback split.
func NUMAAware() bool { return numaSupported() }

// NodeOfAddr asks the kernel which node backs the page holding the first
// byte of b; ok is false when the platform cannot answer (non-Linux, or
// the page is not resident). The byte should have been touched first —
// a committed window qualifies, Commit touches every page.
func NodeOfAddr(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	return osNodeOfAddr(unsafe.Pointer(&b[0]))
}

// NodeMap returns the node each window was assigned at commit time (-1
// for windows never committed), index-aligned with the router's slot
// table when the region backs one.
func (r *Region) NodeMap() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, len(r.wins))
	for k, w := range r.wins {
		out[k] = w.node
	}
	return out
}

// nodeForWindow maps window k to its target node: the node of the core a
// worker pinned to instance k is expected to run on.
func (r *Region) nodeForWindow(k int) int {
	ncpu := runtime.NumCPU()
	if ncpu <= 0 {
		ncpu = 1
	}
	return nodeOfCPU(k % ncpu)
}

// parseIDList parses the sysfs ID-list syntax ("0", "0-3", "0,2-3,8")
// used by /sys/devices/system/node/online and the per-node cpulist
// files. Shared by the Linux discovery code; portable so the parser is
// testable on every platform.
func parseIDList(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if lo, hi, ok := strings.Cut(field, "-"); ok {
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil, fmt.Errorf("mem: bad id range %q", field)
			}
			b, err := strconv.Atoi(hi)
			if err != nil || b < a {
				return nil, fmt.Errorf("mem: bad id range %q", field)
			}
			for v := a; v <= b; v++ {
				out = append(out, v)
			}
			continue
		}
		v, err := strconv.Atoi(field)
		if err != nil {
			return nil, fmt.Errorf("mem: bad id %q", field)
		}
		out = append(out, v)
	}
	return out, nil
}
