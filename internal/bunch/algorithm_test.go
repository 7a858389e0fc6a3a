package bunch

import (
	"testing"

	"repro/internal/geometry"
	"repro/internal/status"
)

func mustNew(t testing.TB, total, minSize, maxSize uint64, opts ...Option) *Allocator {
	t.Helper()
	a, err := New(total, minSize, maxSize, opts...)
	if err != nil {
		t.Fatalf("New(%d,%d,%d): %v", total, minSize, maxSize, err)
	}
	return a
}

// TestInteriorNodeOccupiesCoveredFields pins the §III.D rule: reserving a
// node above a bunch-leaf level writes BUSY into all covered leaf fields
// of one word, atomically.
func TestInteriorNodeOccupiesCoveredFields(t *testing.T) {
	a := mustNew(t, 1024, 8, 1024, WithoutScatter()) // depth 7, materialized {7,3}
	h := a.newHandle()
	off, ok := h.Alloc(256) // level 2: covers leaves 8,9 at level 3
	if !ok || off != 0 {
		t.Fatalf("alloc = (%d,%v)", off, ok)
	}
	word, field, count, lam := a.nodeWord(4)
	if lam != 3 || field != 0 || count != 2 {
		t.Fatalf("nodeWord(4) = field %d count %d lam %d", field, count, lam)
	}
	w := word.Load()
	for j := 0; j < 8; j++ {
		got := status.Field(w, j)
		if j < 2 && got != status.Busy {
			t.Fatalf("covered field %d = %s, want BUSY", j, status.String(got))
		}
		if j >= 2 && got != 0 {
			t.Fatalf("uncovered field %d = %s, want clear", j, status.String(got))
		}
	}
	h.Free(off)
	if w := word.Load(); w != 0 {
		t.Fatalf("word not clear after free: %#x", w)
	}
}

// TestClimbMarksParentBunchLeaf verifies a minimum-size allocation marks
// the materialized ancestor's field (4 levels up) rather than any interior
// node.
func TestClimbMarksParentBunchLeaf(t *testing.T) {
	a := mustNew(t, 1024, 8, 1024, WithoutScatter()) // depth 7
	h := a.newHandle()
	off, ok := h.Alloc(8) // leaf node 128 at level 7
	if !ok || off != 0 {
		t.Fatalf("alloc = (%d,%v)", off, ok)
	}
	// The level-7 word holding leaf 128 must have field 0 BUSY.
	leafWord, f := a.wordOf(128, 7)
	if got := status.Field(leafWord.Load(), f); got != status.Busy {
		t.Fatalf("leaf field = %s", status.String(got))
	}
	// The materialized ancestor is node 8 at level 3 (128 >> 4); the climb
	// came from child 16 (level 4, even = left), so OCC_LEFT must be set.
	ancWord, af := a.wordOf(8, 3)
	if got := status.Field(ancWord.Load(), af); got != status.OccLeft {
		t.Fatalf("ancestor field = %s, want OL", status.String(got))
	}
	h.Free(off)
	if got := status.Field(ancWord.Load(), af); got != 0 {
		t.Fatalf("ancestor field = %s after free", status.String(got))
	}
}

// TestRollbackOnOccupiedAncestor drives tryAlloc's abort path directly:
// the level scan no longer offers a node under a reserved ancestor, but a
// racing reservation can still land between the scan and the climb, and
// the rollback is what guards that race.
func TestRollbackOnOccupiedAncestor(t *testing.T) {
	a := mustNew(t, 1024, 8, 1024, WithoutScatter()) // depth 7, materialized {7,3}
	h := a.newHandle()
	half, ok := h.Alloc(512) // node 2 at level 1: lanes 0..3 of the level-3 word
	if !ok || half != 0 {
		t.Fatalf("half alloc = (%d,%v)", half, ok)
	}
	ancWord, _ := a.wordOf(8, 3)
	before := ancWord.Load()

	// Leaf 128 (offset 0) sits under node 8, a level-3 lane of the half.
	leafWord, _ := a.wordOf(128, 7)
	if got := h.tryAlloc(128, leafWord.Load()); got != 8 {
		t.Fatalf("tryAlloc under the reserved half = %d, want blocking ancestor 8", got)
	}
	if w := ancWord.Load(); w != before {
		t.Fatalf("ancestor word %#x after rollback, want %#x", w, before)
	}
	for _, lvl := range a.geo.LeafLevels() {
		if lvl == 3 {
			continue
		}
		for i := uint64(0); i < geometry.WordsAtLevel(lvl); i++ {
			if w := a.words[a.wordBase[lvl]+i].Load(); w != 0 {
				t.Fatalf("level %d word %d dirty after rollback: %#x", lvl, i, w)
			}
		}
	}
	h.Free(half)
	for i := range a.words {
		if w := a.words[i].Load(); w != 0 {
			t.Fatalf("word %d dirty after drain: %#x", i, w)
		}
	}
}

// TestScanSkipsReservedAncestor pins the level-scan filter: a sequential
// Alloc under a reserved ancestor lands past it without a single aborted
// reservation, issuing exactly the RMWs of a plain successful alloc.
func TestScanSkipsReservedAncestor(t *testing.T) {
	plain := mustNew(t, 1024, 8, 1024, WithoutScatter())
	ph := plain.newHandle()
	if _, ok := ph.Alloc(8); !ok {
		t.Fatal("plain alloc failed")
	}
	plainRMW := ph.stats.RMW

	a := mustNew(t, 1024, 8, 1024, WithoutScatter())
	h := a.newHandle()
	half, ok := h.Alloc(512)
	if !ok || half != 0 {
		t.Fatalf("half alloc = (%d,%v)", half, ok)
	}
	before := h.stats
	small, ok := h.Alloc(8)
	if !ok || small != 512 {
		t.Fatalf("small alloc = (%d,%v), want the first unit past the half", small, ok)
	}
	if r := h.stats.Retries - before.Retries; r != 0 {
		t.Fatalf("sequential alloc under a reserved ancestor recorded %d retries", r)
	}
	if rmw := h.stats.RMW - before.RMW; rmw != plainRMW {
		t.Fatalf("alloc under a reserved ancestor issued %d RMWs, plain alloc %d", rmw, plainRMW)
	}
	h.Free(small)
	h.Free(half)
	for i := range a.words {
		if w := a.words[i].Load(); w != 0 {
			t.Fatalf("word %d dirty after drain: %#x", i, w)
		}
	}
}

// TestAllDepthResidues exercises every depth mod 4 (partial top bunches,
// single-node trees) with a fill/drain/refill cycle.
func TestAllDepthResidues(t *testing.T) {
	for depth := 0; depth <= 9; depth++ {
		total := uint64(8) << depth
		a := mustNew(t, total, 8, total)
		var offs []uint64
		for {
			off, ok := a.Alloc(8)
			if !ok {
				break
			}
			offs = append(offs, off)
		}
		if len(offs) != 1<<depth {
			t.Fatalf("depth %d: filled %d units, want %d", depth, len(offs), 1<<depth)
		}
		for _, off := range offs {
			a.Free(off)
		}
		if off, ok := a.Alloc(total); !ok || off != 0 {
			t.Fatalf("depth %d: whole-region alloc after drain = (%d,%v)", depth, off, ok)
		}
		a.Free(0)
	}
}

// TestDerivedArrest pins the in-word buddy derivation used by release
// climbs: occupied-and-not-coalescing buddy halves arrest, coalescing ones
// do not.
func TestDerivedArrest(t *testing.T) {
	// Field 1 busy, buddy of field 0 at the bottom derived level.
	w := status.WithField(0, 1, status.Occ)
	if !derivedArrest(w, 0, 1) {
		t.Fatal("busy sibling field must arrest")
	}
	// Same, but the buddy is also coalescing: must not arrest.
	w = status.WithField(0, 1, status.Occ|status.CoalLeft)
	if derivedArrest(w, 0, 1) {
		t.Fatal("coalescing buddy must not arrest")
	}
	// Busy cousin two levels up: fields 4..7 half against 0..3.
	w = status.WithField(0, 6, status.OccRight)
	if !derivedArrest(w, 0, 2) {
		t.Fatal("busy upper half must arrest a climb from the lower quarter")
	}
	// Clean word never arrests.
	if derivedArrest(0, 3, 1) {
		t.Fatal("clean word arrested")
	}
	// A node covering the whole word has no in-word buddies.
	if derivedArrest(status.Fill(0, 8, status.Busy), 0, 8) {
		t.Fatal("whole-word node cannot arrest against itself")
	}
}

// TestGeometryAgreement cross-checks nodeWord against the geometry
// package over the whole tree.
func TestGeometryAgreement(t *testing.T) {
	a := mustNew(t, 1<<13, 8, 1<<13) // depth 10, materialized {10,6,2}
	for n := uint64(1); n < a.geo.Nodes(); n++ {
		_, field, count, lam := a.nodeWord(n)
		if want := a.geo.LeafLevelFor(geometry.LevelOf(n)); lam != want {
			t.Fatalf("node %d: lam=%d want %d", n, lam, want)
		}
		first, cnt := a.geo.CoveredLeaves(n)
		if cnt != count {
			t.Fatalf("node %d: count=%d want %d", n, count, cnt)
		}
		_, f := geometry.WordOf(first, lam)
		if f != field {
			t.Fatalf("node %d: field=%d want %d", n, field, f)
		}
	}
}
