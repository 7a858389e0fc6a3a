package multi

import (
	"errors"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/alloc"
	"repro/internal/fault"
	"repro/internal/mem"

	_ "repro/internal/core"
)

// Hugepage-sized windows, so the commits also take the hugepage advise.
var faultCfg = alloc.Config{Total: mem.HugePageSize, MinSize: 64, MaxSize: 1 << 10}

// mappedRouter builds a live-tracked router backed by a region whose
// lifecycle calls route through a fresh (initially empty) injector.
func mappedRouter(t *testing.T, count int) (*Multi, *mem.Region, *fault.Injector) {
	t.Helper()
	m, err := New("1lvl-nb", count, faultCfg, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableLiveTracking()
	in := fault.New(1)
	r, err := mem.New(m.InstanceSpan(), m.Slots(), mem.WithFaultInjector(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BindMemory(r); err != nil {
		t.Fatal(err)
	}
	return m, r, in
}

// TestAddInstanceCommitFailureLeavesNoTrace pins the commit half of the
// overlapped grow's unwind: when the window commit fails while the leaf
// build succeeds, the built slot is dropped — the table, its width and
// the commit map are exactly as before — and a retry grows cleanly, even
// when its hugepage advise fails (counted as mem_huge_fallbacks).
func TestAddInstanceCommitFailureLeavesNoTrace(t *testing.T) {
	m, r, in := mappedRouter(t, 2)
	slots, commitMap := m.Slots(), r.CommitMap()
	tab := m.tab.Load()

	in.Set(fault.FailAlways(fault.Commit, syscall.ENOMEM))
	if _, err := m.AddInstance(); !errors.Is(err, syscall.ENOMEM) {
		t.Fatalf("AddInstance under commit fault = %v, want ENOMEM", err)
	}
	if m.tab.Load() != tab || m.Slots() != slots || m.Instances() != 2 {
		t.Fatalf("failed grow mutated the table: slots=%d instances=%d", m.Slots(), m.Instances())
	}
	if got := r.CommitMap(); !slices.Equal(got[:len(commitMap)], commitMap) || slices.Contains(got[len(commitMap):], true) {
		t.Fatalf("failed grow changed the commit map: %v -> %v", commitMap, got)
	}
	if s := r.Stats(); s.CommitFails != 1 || s.CommittedBytes != 2*m.InstanceSpan() {
		t.Fatalf("region stats after failed grow: %+v", s)
	}

	in.Set(fault.FailAlways(fault.Huge, syscall.EINVAL))
	k, err := m.AddInstance()
	if err != nil {
		t.Fatalf("grow retry: %v", err)
	}
	if !r.Committed(k) {
		t.Fatalf("retried grow left window %d uncommitted", k)
	}
	if got := m.LayerStats()[0].Extra["mem_huge_fallbacks"]; got != 1 {
		t.Fatalf("mem_huge_fallbacks = %d after one failed hugepage advise, want 1", got)
	}
}

// failingLeaf is a test-registered variant that builds a 1lvl-nb leaf
// and then fails while failLeafBuilds is set — a build failure that only
// surfaces after the leaf's construction cost was paid, overlapping the
// window commit the way a real late failure would.
const failingLeaf = "multi-test-failing-1lvl-nb"

var failLeafBuilds atomic.Bool

func init() {
	alloc.Register(failingLeaf, func(cfg alloc.Config) (alloc.Allocator, error) {
		a, err := alloc.Build("1lvl-nb", cfg)
		if err == nil && failLeafBuilds.Load() {
			return nil, errors.New("injected leaf build failure")
		}
		return a, err
	})
}

// TestAddInstanceRollsBackCommitOnBuildFailure pins the build half of the
// overlapped grow's unwind: a leaf build failure while the window commit
// succeeds must decommit the window and publish nothing.
func TestAddInstanceRollsBackCommitOnBuildFailure(t *testing.T) {
	m, err := New(failingLeaf, 2, faultCfg, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableLiveTracking()
	r, err := mem.New(m.InstanceSpan(), m.Slots())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BindMemory(r); err != nil {
		t.Fatal(err)
	}

	// Open a hole so the failed grow targets a known slot index.
	if err := m.StartDrain(1); err != nil {
		t.Fatal(err)
	}
	if done, err := m.TryRetire(1); err != nil || !done {
		t.Fatalf("TryRetire = (%v, %v)", done, err)
	}
	if r.Committed(1) {
		t.Fatal("retired window still committed")
	}
	tab := m.tab.Load()

	failLeafBuilds.Store(true)
	_, err = m.AddInstance()
	failLeafBuilds.Store(false)
	if err == nil {
		t.Fatal("AddInstance with a failing leaf build must fail")
	}
	if m.tab.Load() != tab || m.Instances() != 1 {
		t.Fatalf("failed grow published an instance: %d", m.Instances())
	}
	if r.Committed(1) {
		t.Fatal("build failure leaked a committed window behind the unpublished slot")
	}
	if s := r.Stats(); s.Commits != 3 || s.Decommits != 2 || s.CommittedBytes != m.InstanceSpan() {
		t.Fatalf("region stats after rolled-back grow: %+v", s)
	}

	// The hole is still growable once the environment is sane again.
	k, err := m.AddInstance()
	if err != nil || k != 1 {
		t.Fatalf("grow after rollback = (%d, %v)", k, err)
	}
	if !r.Committed(1) {
		t.Fatal("grow after rollback left the window uncommitted")
	}
}

// TestTryRetireDecommitFailureKeepsSlotDraining pins the recoverable
// retire order: a decommit failure must NOT unpublish the slot — it stays
// draining with its window committed, and the next pass retries.
func TestTryRetireDecommitFailureKeepsSlotDraining(t *testing.T) {
	m, r, in := mappedRouter(t, 2)
	if err := m.StartDrain(1); err != nil {
		t.Fatal(err)
	}

	in.Set(fault.FailAlways(fault.Decommit, syscall.EAGAIN))
	done, err := m.TryRetire(1)
	if done || !errors.Is(err, syscall.EAGAIN) {
		t.Fatalf("TryRetire under decommit fault = (%v, %v), want (false, EAGAIN)", done, err)
	}
	if m.Instances() != 2 {
		t.Fatal("failed retire unpublished the slot")
	}
	if infos := m.InstanceInfos(); infos[1].State != Draining {
		t.Fatalf("slot 1 state after failed retire = %v, want Draining", infos[1].State)
	}
	if !r.Committed(1) {
		t.Fatal("failed retire decommitted the window anyway")
	}
	// Frees (and a change of heart) still work: the slot is fully alive.
	if err := m.Reactivate(1); err != nil {
		t.Fatalf("Reactivate after failed retire: %v", err)
	}
	if err := m.StartDrain(1); err != nil {
		t.Fatal(err)
	}

	in.Clear()
	done, err = m.TryRetire(1)
	if err != nil || !done {
		t.Fatalf("TryRetire after schedule cleared = (%v, %v)", done, err)
	}
	if r.Committed(1) || m.Instances() != 1 {
		t.Fatal("recovered retire did not decommit and unpublish")
	}
}
