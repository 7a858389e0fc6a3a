package bunch

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/verify"
)

// TestAncestorFilterRace is the race net for the level-scan filter: some
// goroutines reserve and free MaxSize chunks, flipping the Occ lanes the
// filter reads, while others churn small chunks (single and batched)
// across the same region. Every delivery goes through a claim map, so a
// filter that admitted a node under a live reservation would show as an
// overlap (S1); the drained tree must be all zero words (nothing lost,
// S2). Run it under -race.
func TestAncestorFilterRace(t *testing.T) {
	const (
		minSize = 64
		maxSize = 64 << 10
		total   = 1 << 20 // depth 14, max level 4: ancestor words at levels 10 and 6
		rounds  = 4000
	)
	a := mustNew(t, total, minSize, maxSize)
	chk := verify.NewChecker(total, minSize)
	claim := func(off uint64) { chk.Claim(off, a.ChunkSize(off)) }
	release := func(h *Handle, off uint64) {
		chk.Release(off, a.ChunkSize(off))
		h.Free(off)
	}

	var wg sync.WaitGroup
	worker := func(seed uint64, big bool) {
		defer wg.Done()
		h := a.newHandle()
		rng := rand.New(rand.NewPCG(seed, 7))
		var live []uint64
		for r := 0; r < rounds; r++ {
			if len(live) > 0 && (rng.IntN(2) == 0 || big && len(live) >= 3 || len(live) >= 200) {
				j := rng.IntN(len(live))
				release(h, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			switch {
			case big:
				if off, ok := h.Alloc(maxSize); ok {
					claim(off)
					live = append(live, off)
				}
			case rng.IntN(8) == 0:
				for _, off := range h.AllocBatch(minSize, 1+rng.IntN(8)) {
					claim(off)
					live = append(live, off)
				}
			default:
				if off, ok := h.Alloc(minSize << rng.IntN(5)); ok {
					claim(off)
					live = append(live, off)
				}
			}
		}
		for _, off := range live {
			release(h, off)
		}
	}
	for g := uint64(0); g < 4; g++ {
		wg.Add(1)
		go worker(g, g < 2)
	}
	wg.Wait()

	if n := chk.Overlaps(); n != 0 {
		t.Fatalf("%d overlapping deliveries (S1)", n)
	}
	if err := chk.Quiesced(); err != nil {
		t.Fatal(err)
	}
	for i := range a.words {
		if w := a.words[i].Load(); w != 0 {
			t.Fatalf("word %d dirty after drain: %#x", i, w)
		}
	}
}
