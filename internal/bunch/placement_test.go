package bunch

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geometry"
)

// TestPlacementMatchesOneLevel is the placement oracle for the level
// scan: over a seeded sequential alloc/free stream, 4lvl-nb must return
// exactly the offsets and success flags of 1lvl-nb, whose scan is the
// paper's. Sequentially both are first-fit from the same scatter start,
// so any divergence means the bunch scan skipped a node the paper's scan
// would have returned (or offered one it would not). The geometries cover
// every depth residue mod 4 (partial top bunches) and several max levels.
func TestPlacementMatchesOneLevel(t *testing.T) {
	geos := []struct{ total, minSize, maxSize uint64 }{
		{8 << 8, 8, 8 << 8},
		{8 << 9, 8, 8 << 6},
		{8 << 10, 8, 8 << 10},
		{8 << 10, 8, 8 << 5},
		{8 << 11, 8, 8 << 9},
		{8 << 11, 8, 8 << 3},
		{64 << 12, 64, 64 << 8},
		{64 << 13, 64, 64 << 10},
	}
	for _, g := range geos {
		for _, scatter := range []bool{true, false} {
			name := fmt.Sprintf("%d/%d/%d/scatter=%v", g.total, g.minSize, g.maxSize, scatter)
			t.Run(name, func(t *testing.T) {
				var bo []Option
				var co []core.Option
				if !scatter {
					bo = append(bo, WithoutScatter())
					co = append(co, core.WithoutScatter())
				}
				four := mustNew(t, g.total, g.minSize, g.maxSize, bo...)
				one, err := core.New(g.total, g.minSize, g.maxSize, co...)
				if err != nil {
					t.Fatal(err)
				}
				comparePlacement(t, four, one, g.minSize, g.maxSize, scatter, uint64(g.total^g.maxSize))
			})
		}
	}
}

func comparePlacement(t *testing.T, four *Allocator, one *core.Allocator, minSize, maxSize uint64, scatter bool, seed uint64) {
	t.Helper()
	// Two handles per side, created in the same order, so both scatter
	// ids and sequences line up.
	fh := []*Handle{four.newHandle(), four.newHandle()}
	oh := []*core.Handle{one.NewHandle().(*core.Handle), one.NewHandle().(*core.Handle)}
	rng := rand.New(rand.NewPCG(seed, 13))
	depth := four.geo.Depth
	logSpan := math.Log2(float64(maxSize) / float64(minSize))
	var live []uint64
	for op := 0; op < 4000; op++ {
		k := rng.IntN(2)
		size := uint64(float64(minSize) * math.Pow(2, logSpan*rng.Float64()))
		switch r := rng.IntN(10); {
		case r < 4 && len(live) > 0:
			j := rng.IntN(len(live))
			fh[k].Free(live[j])
			oh[k].Free(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case r == 4:
			// A batch snaps its start to its word. A bunch word holds
			// 8/count nodes of a level above a materialized one, a 1-level
			// word 8, and only the 1-level scan keeps the scatter slot on
			// levels narrower than a word. With scatter on, the two starts
			// (and so the placements) agree only at materialized levels at
			// least a word wide.
			if level := four.geo.LevelForSize(size); scatter && !batchStartsAgree(four, level) {
				level = four.geo.LeafLevelFor(level)
				if !batchStartsAgree(four, level) {
					level += 4
				}
				size = four.geo.SizeOfLevel(level)
			}
			n := 1 + rng.IntN(9)
			got, want := fh[k].AllocBatch(size, n), oh[k].AllocBatch(size, n)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d (depth %d): AllocBatch(%d, %d) = %v, 1lvl-nb %v", op, depth, size, n, got, want)
			}
			live = append(live, got...)
		default:
			got, gotOK := fh[k].Alloc(size)
			want, wantOK := oh[k].Alloc(size)
			if got != want || gotOK != wantOK {
				t.Fatalf("op %d (depth %d): Alloc(%d) = (%d,%v), 1lvl-nb (%d,%v)", op, depth, size, got, gotOK, want, wantOK)
			}
			if gotOK {
				live = append(live, got)
			}
		}
	}
	// The paper's scan aborts exactly on reserved ancestors here, so this
	// proves the stream put candidates under them.
	if oh[0].Stats().Retries+oh[1].Stats().Retries == 0 {
		t.Fatal("the stream never met a reserved ancestor")
	}
	for _, off := range live {
		fh[0].Free(off)
		oh[0].Free(off)
	}
	for i := range four.words {
		if w := four.words[i].Load(); w != 0 {
			t.Fatalf("word %d dirty after drain: %#x", i, w)
		}
	}
}

func batchStartsAgree(a *Allocator, level int) bool {
	return a.geo.IsLeafLevel(level) && geometry.LevelWidth(level) >= 8
}
