package mem

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/fault"
)

func TestLifecycleStateMachine(t *testing.T) {
	r, err := New(1<<16, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()

	if got := r.Windows(); got != 2 {
		t.Fatalf("Windows() = %d, want 2", got)
	}
	if r.Committed(0) || r.Committed(1) {
		t.Fatal("windows must start reserved, not committed")
	}
	s := r.Stats()
	if s.ReservedBytes != 2<<16 || s.CommittedBytes != 0 {
		t.Fatalf("fresh region stats = %+v", s)
	}

	// reserve -> commit
	if err := r.Commit(0); err != nil {
		t.Fatal(err)
	}
	if !r.Committed(0) {
		t.Fatal("window 0 should be committed")
	}
	if s := r.Stats(); s.CommittedBytes != 1<<16 || s.Commits != 1 || s.Recommits != 0 {
		t.Fatalf("after commit: %+v", s)
	}
	// committing a committed window is a no-op
	if err := r.Commit(0); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Commits != 1 {
		t.Fatalf("idempotent commit must not count: %+v", s)
	}

	// the committed window is writable through Window/Bytes
	w := r.Window(0)
	if uint64(len(w)) != r.WindowSize() {
		t.Fatalf("Window(0) length %d, want %d", len(w), r.WindowSize())
	}
	w[0], w[len(w)-1] = 0xAB, 0xCD
	if b := r.Bytes(0, 0, 1); b[0] != 0xAB {
		t.Fatal("Bytes view does not alias the window")
	}

	// commit -> decommit
	if err := r.Decommit(0); err != nil {
		t.Fatal(err)
	}
	if r.Committed(0) {
		t.Fatal("window 0 should be decommitted")
	}
	if s := r.Stats(); s.CommittedBytes != 0 || s.Decommits != 1 {
		t.Fatalf("after decommit: %+v", s)
	}
	// decommitting again is a no-op
	if err := r.Decommit(0); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Decommits != 1 {
		t.Fatalf("idempotent decommit must not count: %+v", s)
	}

	// decommit -> recommit: counted separately, window comes back zeroed
	if err := r.Commit(0); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Commits != 2 || s.Recommits != 1 {
		t.Fatalf("after recommit: %+v", s)
	}
	w = r.Window(0)
	if w[0] != 0 || w[len(w)-1] != 0 {
		t.Fatalf("recommitted window not zero-filled: %x %x", w[0], w[len(w)-1])
	}
}

func TestCommitMapAndEnsure(t *testing.T) {
	r, err := New(1<<12, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	if err := r.Commit(0); err != nil {
		t.Fatal(err)
	}
	// Ensure grows without touching existing lifecycle states.
	if err := r.Ensure(3); err != nil {
		t.Fatal(err)
	}
	if err := r.Ensure(2); err != nil { // shrinking Ensure is a no-op
		t.Fatal(err)
	}
	got := r.CommitMap()
	want := []bool{true, false, false}
	if len(got) != len(want) {
		t.Fatalf("CommitMap length %d, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("CommitMap[%d] = %v, want %v", k, got[k], want[k])
		}
	}
	if s := r.Stats(); s.ReservedBytes != 3<<12 {
		t.Fatalf("reserved bytes %d after Ensure(3), want %d", s.ReservedBytes, 3<<12)
	}
}

func TestUncommittedWindowPanics(t *testing.T) {
	r, err := New(1<<12, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Window on a reserved window must panic")
		}
	}()
	r.Window(0)
}

func TestBadConfig(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Fatal("zero window size must be rejected")
	}
	if _, err := New(1<<12, -1); err == nil {
		t.Fatal("negative window count must be rejected")
	}
}

func TestReleaseIdempotent(t *testing.T) {
	r, err := New(1<<12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(1); err != nil {
		t.Fatal(err)
	}
	r.Release()
	r.Release()
	if r.Windows() != 0 {
		t.Fatal("released region should hold no windows")
	}
}

// BenchmarkCommitDecommit prices one elastic grow's and retire's memory
// work at the production window size: each iteration commits a 64 MiB
// window (pre-faulting every page) and decommits it again, reporting the
// two halves separately as ns/commit and ns/decommit. The huge case is
// what every 2MiB-multiple window gets; base forces the hugepage advise
// down the degradation rung, so the window runs on 4KiB pages.
func BenchmarkCommitDecommit(b *testing.B) {
	const win = 64 << 20
	for _, bc := range []struct {
		name string
		in   *fault.Injector
	}{
		{"huge", nil},
		{"base", fault.New(1, fault.FailAlways(fault.Huge, syscall.EINVAL))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r, err := New(win, 1, WithFaultInjector(bc.in))
			if err != nil {
				b.Fatal(err)
			}
			defer r.Release()
			var commit, decommit time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := r.Commit(0); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if err := r.Decommit(0); err != nil {
					b.Fatal(err)
				}
				commit += t1.Sub(t0)
				decommit += time.Since(t1)
			}
			b.ReportMetric(float64(commit.Nanoseconds())/float64(b.N), "ns/commit")
			b.ReportMetric(float64(decommit.Nanoseconds())/float64(b.N), "ns/decommit")
		})
	}
}
