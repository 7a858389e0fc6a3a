// Package bunch implements the paper's 4-levels optimization (§III.D,
// evaluation label "4lvl-nb"): the non-blocking buddy system with four
// tree levels packed per 64-bit word, cutting the atomic RMW instructions
// on a climb by a factor of four.
//
// Only the deepest level of each 4-level group — the bunch leaves — is
// materialized: 8 leaves × one status byte fill one word exactly (the
// paper packs 5-bit fields into 40 bits; we spend the spare 3 bits per
// leaf to put every field on a byte boundary, which buys the SWAR level
// scan below). The state of the 7 interior nodes of a bunch is derived
// from its leaves: partial occupancy is the OR of the children's
// occupancy, full occupancy the AND, and coalescing the OR of the
// children's coalescing bits (paper Figure 6). Bunch-leaf levels are
// aligned to the bottom of the tree, so tree leaves are always
// materialized and the topmost bunch may be partial.
//
// The algorithms are the same three-phase NBAlloc/NBFree of internal/core
// with two systematic changes:
//
//   - a direct occupy or release of a node touches all the bunch-leaf
//     fields covering it in one CAS (they fit a single word by layout);
//   - climbs step from one materialized level to the next (4 levels per
//     RMW), and the per-level buddy checks the 1-level algorithm performs
//     in between are answered by deriving the intermediate state from the
//     already-witnessed word, costing no extra atomic instruction.
//
// The level scan is a SWAR pass: one atomic load of a bunch word answers
// all the nodes the word covers at the scanned level (eight at the
// materialized levels, fewer above them), with status.FirstFreeRun
// locating the first free candidate by bit tricks. Before reserving a
// candidate, the scan reads its materialized ancestors and skips the
// subtrees of reserved ones (nextCandidate); the 1-level variant keeps
// the paper's scan without this filter.
package bunch

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/geometry"
	"repro/internal/status"
)

func init() {
	alloc.Register("4lvl-nb", func(cfg alloc.Config) (alloc.Allocator, error) {
		return NewFromConfig(cfg)
	})
}

// Allocator is a single 4-level non-blocking buddy-system instance.
type Allocator struct {
	geo geometry.Geometry
	// words holds the bunch words of all materialized levels, deepest
	// level first; wordBase[level] is the offset of a materialized
	// level's words within the slice.
	words    []atomic.Uint64
	wordBase [64]uint64
	// index maps allocation-unit slots to the serving node, as in core.
	index   []atomic.Uint32
	scatter bool

	mu      sync.Mutex
	handles []*Handle
	closed  alloc.Stats // retained counters of closed handles
	nextID  uint64
	pool    sync.Pool
}

// Option tweaks allocator construction.
type Option func(*Allocator)

// WithoutScatter disables the scattered scan start (ablation A2).
func WithoutScatter() Option { return func(a *Allocator) { a.scatter = false } }

// New builds an instance managing total bytes with the given allocation
// unit and maximum request size (all powers of two).
func New(total, minSize, maxSize uint64, opts ...Option) (*Allocator, error) {
	geo, err := geometry.New(total, minSize, maxSize)
	if err != nil {
		return nil, err
	}
	return NewWithGeometry(geo, opts...), nil
}

// NewFromConfig adapts New to the registry factory signature.
func NewFromConfig(cfg alloc.Config) (*Allocator, error) {
	return New(cfg.Total, cfg.MinSize, cfg.MaxSize)
}

// NewWithGeometry builds an instance from an already-validated geometry.
func NewWithGeometry(geo geometry.Geometry, opts ...Option) *Allocator {
	if geo.Depth > 31 {
		panic(fmt.Sprintf("bunch: depth %d exceeds the uint32 node-index range", geo.Depth))
	}
	a := &Allocator{
		geo:     geo,
		index:   make([]atomic.Uint32, geo.Leaves()),
		scatter: true,
	}
	var total uint64
	for _, lvl := range geo.LeafLevels() {
		a.wordBase[lvl] = total
		total += geometry.WordsAtLevel(lvl)
	}
	a.words = make([]atomic.Uint64, total)
	for _, o := range opts {
		o(a)
	}
	a.pool.New = func() any { return a.NewHandle() }
	return a
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "4lvl-nb" }

// Geometry implements alloc.Allocator.
func (a *Allocator) Geometry() geometry.Geometry { return a.geo }

// wordOf returns the bunch word holding leaf (which must be at the
// materialized level leafLevel) and the field position of leaf within it.
func (a *Allocator) wordOf(leaf uint64, leafLevel int) (*atomic.Uint64, int) {
	w, f := geometry.WordOf(leaf, leafLevel)
	return &a.words[a.wordBase[leafLevel]+w], f
}

// nodeWord locates the word and covered field range of an arbitrary node.
func (a *Allocator) nodeWord(n uint64) (word *atomic.Uint64, field, count int, leafLevel int) {
	first, cnt := a.geo.CoveredLeaves(n)
	leafLevel = a.geo.LeafLevelFor(geometry.LevelOf(n))
	w, f := a.wordOf(first, leafLevel)
	return w, f, cnt, leafLevel
}

// Alloc serves a one-off request through a pooled handle.
func (a *Allocator) Alloc(size uint64) (uint64, bool) {
	h := a.pool.Get().(*Handle)
	off, ok := h.Alloc(size)
	a.pool.Put(h)
	return off, ok
}

// Free releases a chunk through a pooled handle.
func (a *Allocator) Free(offset uint64) {
	h := a.pool.Get().(*Handle)
	h.Free(offset)
	a.pool.Put(h)
}

// NewHandle implements alloc.Allocator.
func (a *Allocator) NewHandle() alloc.Handle { return a.newHandle() }

func (a *Allocator) newHandle() *Handle {
	a.mu.Lock()
	defer a.mu.Unlock()
	h := &Handle{a: a, id: a.nextID}
	a.nextID++
	a.handles = append(a.handles, h)
	return h
}

// Stats implements alloc.Allocator; call it only at quiescent points.
func (a *Allocator) Stats() alloc.Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := a.closed
	for _, h := range a.handles {
		total.Add(h.stats)
	}
	return total
}

// Handle is the per-worker face of the allocator (not safe for concurrent
// use).
type Handle struct {
	a      *Allocator
	id     uint64
	seq    uint64
	stats  alloc.Stats
	closed bool
}

// Stats implements alloc.Handle.
func (h *Handle) Stats() *alloc.Stats { return &h.stats }

// Close implements alloc.HandleCloser: fold this handle's counters into
// the allocator's retained totals and unregister it, so handle-churning
// callers do not grow the registry without bound. The handle must not be
// used afterwards.
func (h *Handle) Close() {
	if h.closed {
		return
	}
	h.closed = true
	a := h.a
	a.mu.Lock()
	for i, other := range a.handles {
		if other == h {
			a.handles[i] = a.handles[len(a.handles)-1]
			a.handles = a.handles[:len(a.handles)-1]
			break
		}
	}
	a.closed.Add(h.stats)
	a.mu.Unlock()
}

// Handles returns the number of registered (not yet closed) handles — a
// diagnostic for the handle-leak regression tests.
func (a *Allocator) Handles() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.handles)
}

// scatterSlot spreads handles across the level by golden-ratio hashing
// and rotates each handle's start between allocations (see the identical
// method in internal/core).
func (h *Handle) scatterSlot(level int) uint64 {
	if !h.a.scatter || level == 0 {
		return 0
	}
	base := (h.id * 0x9E3779B97F4A7C15) >> uint(64-level)
	return (base + h.seq) & (geometry.LevelWidth(level) - 1)
}

// Alloc is NBALLOC over the bunch layout: the 1-level variant's two-pass
// level scan, with a bunch-word probe and a read-only ancestor filter in
// nextCandidate, then the reservation and, after an abort, the same
// subtree skip.
func (h *Handle) Alloc(size uint64) (uint64, bool) {
	geo := h.a.geo
	if size > geo.MaxSize {
		h.stats.AllocFails++
		return 0, false
	}
	level := geo.LevelForSize(size)
	base := geometry.FirstOfLevel(level)
	end := base << 1
	h.seq++
	start := base + h.scatterSlot(level)

	for pass := 0; pass < 2; pass++ {
		lo, hi := start, end
		if pass == 1 {
			lo, hi = base, start
		}
		for i := lo; i < hi; {
			cand, w := h.nextCandidate(level, i, hi)
			if cand == 0 {
				break
			}
			failedAt := h.tryAlloc(cand, w)
			if failedAt == 0 {
				return h.deliver(cand), true
			}
			h.stats.Retries++
			i = pastSubtree(level, cand, failedAt)
		}
	}
	h.stats.AllocFails++
	return 0, false
}

// nextCandidate is one step of the level scan, shared by Alloc and
// AllocBatch. It returns the first node of the level in [i, hi) worth a
// reservation attempt, with the witnessed value of its word to seed
// tryAlloc's CAS, or cand == 0 when the pass holds none.
//
// Each bunch word is probed with the busy mask only, as the 1-level
// IsFree does: transient coalescing bits do not disqualify a node (the
// reservation CAS inside tryAlloc still requires them clear).
// FirstFreeRun yields the first candidate among the 8/count nodes the
// word covers at this level.
//
// A candidate under a reserved materialized ancestor would only be
// reserved, climbed and rolled back, so the candidate's ancestor words
// are read first, top-down from the level covering MaxLevel. The first
// lane with Occ set blocks the candidate's whole subtree, and the scan
// resumes under the next lane of that word whose Occ bit is clear. The
// loads are a filter only: a stale read can skip a subtree that has just
// been freed (the spurious miss the paper's non-atomic scan allows) but
// cannot cause an overlap, since tryAlloc's CAS and climb still decide
// every candidate that passes.
func (h *Handle) nextCandidate(level int, i, hi uint64) (cand, w uint64) {
	a := h.a
	lam := a.geo.LeafLevelFor(level)
	top := a.geo.LeafLevelFor(a.geo.MaxLevel)
	shift := uint(lam - level) // a node of the level covers 1<<shift lanes
	count := 1 << shift
scan:
	for i < hi {
		word, field := a.wordOf(i<<shift, lam)
		w = word.Load()
		f := status.FirstFreeRun(w, field, count)
		if f == status.LanesPerWord {
			i += uint64((status.LanesPerWord - field) / count) // next word's first node
			continue
		}
		cand = i + uint64((f-field)/count)
		if cand >= hi {
			break
		}
		for up := top; up < lam; up += geometry.BunchSpan {
			anc := geometry.AncestorAt(cand, level, up)
			ancWord, ancField := a.wordOf(anc, up)
			if v := ancWord.Load(); status.OccLane(v, ancField) {
				next := anc + uint64(status.FirstUnreservedLane(v, ancField+1)-ancField)
				i = next << uint(level-up)
				continue scan
			}
		}
		return cand, w
	}
	return 0, 0
}

// pastSubtree is the skip after an aborted reservation of cand: every
// node of the level under failedAt is equally taken, so the scan resumes
// after failedAt's subtree (or right after cand when cand itself lost).
func pastSubtree(level int, cand, failedAt uint64) uint64 {
	d := uint64(1) << uint(level-geometry.LevelOf(failedAt))
	next := (failedAt + 1) * d
	if next <= cand {
		next = cand + 1
	}
	return next
}

// deliver publishes a reserved node in index[] and returns its offset.
func (h *Handle) deliver(n uint64) uint64 {
	geo := h.a.geo
	offset := geo.OffsetOf(n)
	h.a.index[geo.UnitIndex(offset)].Store(uint32(n))
	h.stats.Allocs++
	return offset
}

// tryAlloc reserves node n and propagates partial occupancy to the max
// level in 4-level steps. It returns 0 on success or the index of the
// conflicting node, after rolling back its own updates. scanned is the
// caller's already-loaded value of n's word, seeding the first
// reservation attempt so the hot path issues no redundant atomic load.
func (h *Handle) tryAlloc(n, scanned uint64) uint64 {
	geo := h.a.geo
	nLevel := geometry.LevelOf(n)
	word, field, count, leafLevel := h.a.nodeWord(n)

	// Reserve n: all covered leaf fields must be exactly clear (as in the
	// 1-level CAS from 0 to BUSY: pending coalescing bits also fail the
	// reservation); a CAS lost purely to traffic on sibling fields of the
	// word is retried, since the covered fields are re-validated.
	occupyMask := status.Fill(field, count, status.Busy)
	for w := scanned; ; w = word.Load() {
		if w&status.Fill(field, count, status.Mask) != 0 {
			return n
		}
		h.stats.RMW++
		if word.CompareAndSwap(w, w|occupyMask) {
			break
		}
		h.stats.CASFail++
	}

	// Climb. Interior bunch ancestors of n derive their state from the
	// fields just set; explicit updates happen at each materialized level
	// above n's bunch, down to the one that covers MaxLevel.
	lamStop := geo.LeafLevelFor(geo.MaxLevel)
	for lam := leafLevel - geometry.BunchSpan; lam >= lamStop; lam -= geometry.BunchSpan {
		anc := geometry.AncestorAt(n, nLevel, lam)
		child := geometry.AncestorAt(n, nLevel, lam+1)
		ancWord, ancField := h.a.wordOf(anc, lam)
		for {
			w := ancWord.Load()
			f := status.Field(w, ancField)
			if status.IsOcc(f) {
				// A fully reserved ancestor: roll back the climb (which
				// has updated materialized levels (lam, leafLevel-4]) and
				// n's own reservation, then report the conflict.
				h.freeNode(n, lam+geometry.BunchSpan)
				return anc
			}
			nf := status.Mark(status.CleanCoal(f, child), child)
			h.stats.RMW++
			if ancWord.CompareAndSwap(w, status.WithField(w, ancField, nf)) {
				break
			}
			h.stats.CASFail++
		}
	}
	return 0
}

// Free is NBFREE: recover the serving node from index[] and release it all
// the way up to the level covering MaxLevel.
func (h *Handle) Free(offset uint64) {
	geo := h.a.geo
	if offset >= geo.Total || offset%geo.MinSize != 0 {
		panic(fmt.Sprintf("bunch: Free(%#x): offset outside the managed region or unaligned", offset))
	}
	n := h.a.index[geo.UnitIndex(offset)].Swap(0)
	if n == 0 {
		panic(fmt.Sprintf("bunch: Free(%#x): offset not currently allocated (double free?)", offset))
	}
	h.freeNode(uint64(n), geo.LeafLevelFor(geo.MaxLevel))
	h.stats.Frees++
}

// freeNode releases node n, propagating through materialized levels down
// to ubLam (the bunch-leaf level the release must reach). For a real free
// ubLam covers MaxLevel; for a TryAlloc rollback it is the level just
// below the conflict point.
func (h *Handle) freeNode(n uint64, ubLam int) {
	nLevel := geometry.LevelOf(n)
	word, field, count, leafLevel := h.a.nodeWord(n)

	// Phase 1: mark the climb path as coalescing. The 1-level algorithm
	// checks at every step whether the buddy branch is occupied (and not
	// itself coalescing) to arrest the climb; here the buddies at the
	// levels interior to the bunch just left are derived from the
	// witnessed word, and the buddy at the explicit step is read from the
	// ancestor's own field.
	lowWord, lowField, lowCount := word.Load(), field, count
	for lam := leafLevel - geometry.BunchSpan; lam >= ubLam; lam -= geometry.BunchSpan {
		if derivedArrest(lowWord, lowField, lowCount) {
			break
		}
		anc := geometry.AncestorAt(n, nLevel, lam)
		child := geometry.AncestorAt(n, nLevel, lam+1)
		ancWord, ancField := h.a.wordOf(anc, lam)
		// Setting one coalescing bit would be a natural atomic Or — but
		// the value-returning atomic.Uint64.Or/And intrinsics miscompile
		// this climb shape on go1.24.0/amd64 (a register holding a live
		// pointer gets clobbered; reproduced standalone), so the mark
		// stays a CAS loop. Skipping the RMW when the bit is already set
		// is safe: the loaded word is then exactly the witness an Or would
		// have returned.
		coal := status.ShiftToLane(status.CoalBit(child), ancField)
		var witnessed uint64
		for {
			w := ancWord.Load()
			witnessed = w
			if w&coal != 0 {
				break
			}
			h.stats.RMW++
			if ancWord.CompareAndSwap(w, w|coal) {
				break
			}
			h.stats.CASFail++
		}
		wf := status.Field(witnessed, ancField)
		if status.IsOccBuddy(wf, child) && !status.IsCoalBuddy(wf, child) {
			break
		}
		// The next iteration's derived checks look at the word we just
		// left the mark in, from the ancestor's field upward.
		lowWord, lowField, lowCount = witnessed, ancField, 1
	}

	// Phase 2: release n itself by clearing all its covered fields. A CAS
	// loop (rather than the 1-level plain store) tolerates concurrent
	// traffic on sibling fields of the word. (An atomic And would do it
	// in one guaranteed RMW, but see the intrinsic caveat in phase 1.)
	clearMask := status.FieldMask(field, count)
	var afterRelease uint64
	for {
		w := word.Load()
		afterRelease = w &^ clearMask
		h.stats.RMW++
		if word.CompareAndSwap(w, afterRelease) {
			break
		}
		h.stats.CASFail++
	}

	// Phase 3: propagate the release (UNMARK). Climbing one materialized
	// step asserts that the whole subtree under the ancestor's child
	// branch is free, which is exactly "the word just updated holds no
	// busy field": that one test answers every per-level buddy check the
	// 1-level algorithm would perform in between. The coalescing bit in
	// the ancestor's field protects the step against racing allocations,
	// which clear it when they reuse the branch.
	if nLevel <= ubLam { // n is at (or above) the destination level: no climb happened
		return
	}
	lowAfter := afterRelease
	for lam := leafLevel - geometry.BunchSpan; lam >= ubLam; lam -= geometry.BunchSpan {
		if anyBusyWord(lowAfter) {
			return
		}
		anc := geometry.AncestorAt(n, nLevel, lam)
		child := geometry.AncestorAt(n, nLevel, lam+1)
		ancWord, ancField := h.a.wordOf(anc, lam)
		var updated uint64
		for {
			w := ancWord.Load()
			f := status.Field(w, ancField)
			if !status.IsCoal(f, child) {
				return
			}
			nf := status.Unmark(f, child)
			updated = status.WithField(w, ancField, nf)
			h.stats.RMW++
			if ancWord.CompareAndSwap(w, updated) {
				break
			}
			h.stats.CASFail++
		}
		lowAfter = updated
	}
}

// derivedArrest walks the within-word buddy tree from the fields [j,j+count)
// towards the word root and reports whether some derived buddy is occupied
// while not coalescing — the condition that arrests a release climb in the
// 1-level algorithm, answered here without touching memory.
func derivedArrest(w uint64, j, count int) bool {
	for count < 8 {
		buddy := j ^ count
		busy := w&status.Fill(buddy, count, status.Busy) != 0
		coal := w&status.Fill(buddy, count, status.CoalLeft|status.CoalRight) != 0
		if busy && !coal {
			return true
		}
		count <<= 1
		j &^= count - 1
	}
	return false
}

// anyBusyWord reports whether any field of a bunch word has a busy bit.
func anyBusyWord(w uint64) bool { return w&status.Fill(0, 8, status.Busy) != 0 }
