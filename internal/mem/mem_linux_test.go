//go:build linux

package mem

import (
	"errors"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// rss returns the process resident set in bytes via /proc/self/statm
// (field 2, in pages) — the same measurement examples/elastic gates on.
func rss(t *testing.T) uint64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(string(data))
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return pages * uint64(syscall.Getpagesize())
}

// withPopulate swaps the MADV_POPULATE_WRITE seam for one test.
func withPopulate(t *testing.T, fn func([]byte) error) {
	t.Helper()
	prev := populate
	populate = fn
	t.Cleanup(func() { populate = prev })
}

// vma returns the /proc/self/smaps entry of the mapping that contains
// addr: its permission field ("rw-p", "---p", ...) and its "Key: value"
// lines (THPeligible, VmFlags, ...) keyed without the colon.
func vma(t *testing.T, addr uintptr) (perms string, fields map[string]string) {
	t.Helper()
	data, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if key, ok := strings.CutSuffix(f[0], ":"); ok {
			if fields != nil {
				fields[key] = strings.Join(f[1:], " ")
			}
			continue
		}
		if fields != nil {
			break // the next mapping's header ends the one we want
		}
		lo, hi, ok := strings.Cut(f[0], "-")
		if !ok {
			continue
		}
		start, err1 := strconv.ParseUint(lo, 16, 64)
		end, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 == nil && err2 == nil && uint64(addr) >= start && uint64(addr) < end {
			perms, fields = f[1], map[string]string{}
		}
	}
	if fields == nil {
		t.Fatalf("no mapping contains %#x", addr)
	}
	return perms, fields
}

// TestMappedRSSLifecycle is the page-level ground truth of the package,
// for both ways a commit pre-faults its window: the MADV_POPULATE_WRITE
// call and the touch-loop fallback an older kernel gets. Each must make
// at least 90% of the window resident by the time Commit returns (the
// rest is margin for unrelated runtime traffic), and Decommit must give
// it back.
func TestMappedRSSLifecycle(t *testing.T) {
	if !Mapped() {
		t.Skip("portable fallback: no RSS effect to measure")
	}
	const win = 32 << 20
	for _, tc := range []struct {
		name         string
		forceTouch   bool
		wantFallback uint64
	}{
		{name: "populate"},
		{name: "touch-fallback", forceTouch: true, wantFallback: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.forceTouch {
				withPopulate(t, func([]byte) error { return syscall.EINVAL })
			}
			r, err := New(win, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Release()

			before := rss(t)
			if err := r.Commit(0); err != nil {
				t.Fatal(err)
			}
			atCommit := rss(t)
			if got := r.Stats().PopulateFallbacks; got != tc.wantFallback {
				if !tc.forceTouch {
					t.Skip("kernel rejects MADV_POPULATE_WRITE (needs Linux 5.14+)")
				}
				t.Fatalf("PopulateFallbacks = %d, want %d", got, tc.wantFallback)
			}
			if atCommit < before+win*9/10 {
				t.Fatalf("commit made too little resident: before=%d after=%d (want >= +%d)", before, atCommit, win*9/10)
			}
			if err := r.Decommit(0); err != nil {
				t.Fatal(err)
			}
			if atDecommit := rss(t); atDecommit > atCommit-win*9/10 {
				t.Fatalf("decommit did not return RSS: committed=%d decommitted=%d (want <= -%d)", atCommit, atDecommit, win*9/10)
			}
		})
	}
}

// TestPopulateFallbackAndFailure drives each branch of osTouch's error
// mapping through the populate seam: EINTR is retried, EINVAL falls back
// to the touch loop (counted, the commit succeeds), and ENOMEM part way
// through fails the commit — the pages already faulted in are dropped,
// the window is fenced off again and stays reserved, and a later commit
// succeeds.
func TestPopulateFallbackAndFailure(t *testing.T) {
	const win = 16 << 20
	var events []string
	newRegion := func(t *testing.T) *Region {
		t.Helper()
		events = nil
		r, err := New(win, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Release)
		r.SetEventSink(func(ev string, a, b uint64) { events = append(events, ev) })
		return r
	}
	kernel := populate

	t.Run("EINTR is retried", func(t *testing.T) {
		interrupted := false
		withPopulate(t, func(buf []byte) error {
			if !interrupted {
				interrupted = true
				return syscall.EINTR
			}
			return kernel(buf)
		})
		r := newRegion(t)
		if err := r.Commit(0); err != nil {
			t.Fatalf("Commit after one EINTR: %v", err)
		}
		if s := r.Stats(); s.Commits != 1 || s.CommitFails != 0 {
			t.Fatalf("stats after retried populate: %+v", s)
		}
	})

	t.Run("EINVAL falls back to the touch loop", func(t *testing.T) {
		withPopulate(t, func([]byte) error { return syscall.EINVAL })
		r := newRegion(t)
		if err := r.Commit(0); err != nil {
			t.Fatalf("populate fallback must not fail the commit: %v", err)
		}
		if s := r.Stats(); s.PopulateFallbacks != 1 || s.Commits != 1 || s.CommitFails != 0 || s.CommittedBytes != win {
			t.Fatalf("stats after populate fallback: %+v", s)
		}
		if !slices.Contains(events, "populate-fallback") {
			t.Fatalf("no populate-fallback event: %v", events)
		}
		b := r.Window(0)
		b[0], b[len(b)-1] = 1, 1
	})

	t.Run("ENOMEM fails the commit", func(t *testing.T) {
		withPopulate(t, func(buf []byte) error {
			if err := kernel(buf[:len(buf)/2]); err != nil {
				return err
			}
			return syscall.ENOMEM
		})
		r := newRegion(t)
		before := rss(t)
		err := r.Commit(0)
		if !errors.Is(err, syscall.ENOMEM) {
			t.Fatalf("Commit = %v, want ENOMEM", err)
		}
		if r.Committed(0) {
			t.Fatal("failed commit left the window committed")
		}
		if s := r.Stats(); s.CommitFails != 1 || s.Commits != 0 || s.CommittedBytes != 0 || s.PopulateFallbacks != 0 {
			t.Fatalf("stats after failed populate: %+v", s)
		}
		if !slices.Equal(events, []string{"commit-fail"}) {
			t.Fatalf("events after failed populate: %v", events)
		}
		if got := rss(t); got > before+win/4 {
			t.Fatalf("failed commit kept the half it populated: before=%d after=%d", before, got)
		}
		if p, _ := vma(t, uintptr(unsafe.Pointer(&r.wins[0].buf[0]))); p[:3] != "---" {
			t.Fatalf("failed commit left the window mapped %s, want PROT_NONE", p)
		}

		populate = kernel
		if err := r.Commit(0); err != nil {
			t.Fatalf("commit after the failure: %v", err)
		}
		if s := r.Stats(); s.Commits != 1 || s.Recommits != 0 || s.CommittedBytes != win {
			t.Fatalf("stats after retry: %+v", s)
		}
	})
}

// TestHugePageAlignment checks the hugepage rule: a window whose size is
// a multiple of HugePageSize starts on a HugePageSize boundary and, once
// committed, sits in a THP-eligible mapping; a smaller window is neither
// padded nor advised.
func TestHugePageAlignment(t *testing.T) {
	r, err := New(HugePageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	if !r.HugePages() {
		t.Fatal("2MiB-multiple window must be hugepage-eligible")
	}
	if err := r.Commit(0); err != nil {
		t.Fatal(err)
	}
	w := r.Window(0)
	addr := uintptr(unsafe.Pointer(&w[0]))
	if addr%HugePageSize != 0 {
		t.Fatalf("hugepage window not 2MiB-aligned: %#x", addr)
	}
	// The host can switch THP off (or be built without it); the advise
	// then lands on nothing, and the commit still succeeds on base pages.
	if mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil || strings.Contains(string(mode), "[never]") {
		t.Logf("THP unavailable on this host (%q, %v): skipping the smaps check", mode, err)
	} else if _, f := vma(t, addr); f["THPeligible"] != "1" {
		t.Fatalf("committed hugepage window not THP-eligible: THPeligible=%q VmFlags=%q", f["THPeligible"], f["VmFlags"])
	}

	small, err := New(1<<16, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Release()
	if small.HugePages() {
		t.Fatal("64KiB window must not be hugepage-eligible (alignment rule)")
	}
	if got := len(small.wins[0].raw); got != 1<<16 {
		t.Fatalf("64KiB window reserved %d bytes, want no hugepage padding", got)
	}
	if err := small.Commit(0); err != nil {
		t.Fatal(err)
	}
	if _, f := vma(t, uintptr(unsafe.Pointer(&small.Window(0)[0]))); slices.Contains(strings.Fields(f["VmFlags"]), "hg") {
		t.Fatalf("64KiB window was advised MADV_HUGEPAGE: VmFlags=%q", f["VmFlags"])
	}
}
