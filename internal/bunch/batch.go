package bunch

import "repro/internal/geometry"

// Native alloc.BatchAllocator implementation over the bunch layout; see
// internal/core/batch.go for the rationale. The batch walks the level
// with the same scan step as Alloc (nextCandidate: bunch-word probe plus
// reserved-ancestor filter) and the same skip after an abort; it only
// keeps its position between deliveries instead of returning.

// AllocBatch reserves up to n chunks of at least size bytes in one level
// scan, returning their offsets. A short or empty result means the level
// could not serve the remainder; an empty batch counts one AllocFail.
func (h *Handle) AllocBatch(size uint64, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	geo := h.a.geo
	if size > geo.MaxSize {
		h.stats.AllocFails++
		return nil
	}
	out := make([]uint64, 0, n)
	level := geo.LevelForSize(size)
	base := geometry.FirstOfLevel(level)
	end := base << 1
	h.seq++
	start := base + h.scatterSlot(level)
	// Advance in word units: snap the bulk scan's start to the first node
	// of its bunch word so every loaded word is consumed from its first
	// in-level field (see the identical alignment in internal/core). A
	// node at this level covers count fields, so a word carries
	// 8/count nodes of the level.
	if _, field, count, _ := h.a.nodeWord(start); field != 0 {
		if aligned := start - uint64(field/count); aligned >= base {
			start = aligned
		}
	}

	for pass := 0; pass < 2 && len(out) < n; pass++ {
		lo, hi := start, end
		if pass == 1 {
			lo, hi = base, start
		}
		i := lo
		for i < hi && len(out) < n {
			cand, w := h.nextCandidate(level, i, hi)
			if cand == 0 {
				i = hi
				break
			}
			failedAt := h.tryAlloc(cand, w)
			if failedAt == 0 {
				out = append(out, h.deliver(cand))
				i = cand + 1
				continue
			}
			h.stats.Retries++
			i = pastSubtree(level, cand, failedAt)
		}
		if i > hi {
			i = hi // a subtree skip may overshoot the pass bound
		}
		// Advance the scatter sequence past everything this pass walked
		// (see the identical rover advance in internal/core/batch.go: a
		// +1-per-call rotation would restart every batch inside its own
		// still-live delivery and re-probe it end to end).
		h.seq += i - lo
	}
	if len(out) == 0 {
		h.stats.AllocFails++
	}
	return out
}

// FreeBatch releases a batch of previously allocated chunks.
func (h *Handle) FreeBatch(offsets []uint64) {
	for _, off := range offsets {
		h.Free(off)
	}
}

// AllocBatch implements alloc.BatchAllocator through a pooled handle.
func (a *Allocator) AllocBatch(size uint64, n int) []uint64 {
	h := a.pool.Get().(*Handle)
	out := h.AllocBatch(size, n)
	a.pool.Put(h)
	return out
}

// FreeBatch implements alloc.BatchAllocator through a pooled handle.
func (a *Allocator) FreeBatch(offsets []uint64) {
	h := a.pool.Get().(*Handle)
	h.FreeBatch(offsets)
	a.pool.Put(h)
}
