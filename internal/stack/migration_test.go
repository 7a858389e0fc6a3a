package stack_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/multi"
	"repro/internal/stack"
)

// TestDifferentialMigration fuzzes a migration-enabled mapped+elastic
// stack against a chunk-identity oracle. Unlike the generic differential
// oracle — which assumes an offset never moves while live — this one
// tracks each chunk by identity: the Poll-driven Migrate step rewrites
// its current offset through the OnMigrate hook, and the byte pattern
// (keyed by identity, not address) must survive every move. Forced
// Shrink calls interleave with the churn so drains routinely start on
// slots that still carry live chunks and the migrator has real work.
func TestDifferentialMigration(t *testing.T) {
	t.Parallel()
	per := alloc.Config{Total: 1 << 14, MinSize: 64, MaxSize: 1 << 12}
	st, err := stack.Build(stack.Spec{
		Variant:   "4lvl-nb",
		Per:       per,
		Instances: 3,
		Elastic: &elastic.Config{
			MinInstances: 1, MaxInstances: 6, Hysteresis: 1000,
			Migration: elastic.MigrationConfig{Enabled: true, AfterPolls: 1},
		},
		Mapped: true,
	})
	if err != nil {
		t.Fatalf("stack.Build: %v", err)
	}
	mgr, m, region := st.Elastic, st.Multi, st.Mem
	span := m.InstanceSpan()

	type chunk struct {
		off, size uint64
		id        byte
	}
	occupied := make(map[uint64]*chunk) // keyed by the chunk's current offset
	var live []*chunk
	migrations := 0
	mgr.OnMigrate(func(oldOff, newOff, size uint64) {
		c := occupied[oldOff]
		if c == nil {
			t.Fatalf("migrated offset %#x the oracle does not know", oldOff)
		}
		if c.size != size {
			t.Fatalf("chunk %d migrated with size %d, oracle says %d", c.id, size, c.size)
		}
		if occupied[newOff] != nil {
			t.Fatalf("migration target %#x collides with live chunk %d", newOff, occupied[newOff].id)
		}
		delete(occupied, oldOff)
		c.off = newOff
		occupied[newOff] = c
		migrations++
	})
	window := func(c *chunk) []byte {
		return region.Bytes(m.InstanceOf(c.off), c.off%span, c.size)
	}
	check := func(c *chunk) {
		for i, v := range window(c) {
			if v != c.id {
				t.Fatalf("chunk %d at %#x: byte %d is %#x, want %#x — contents lost across a move",
					c.id, c.off, i, v, c.id)
			}
		}
	}

	h := mgr.NewHandle()
	rng := rand.New(rand.NewSource(42))
	nextID := byte(0)
	for step := 0; step < 6000; step++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(live) == 0: // alloc a random class, stamp the pattern
			size := per.MinSize << rng.Intn(5)
			off, ok := h.Alloc(size)
			if !ok {
				break
			}
			if prev := occupied[off]; prev != nil {
				t.Fatalf("offset %#x handed out while chunk %d lives there", off, prev.id)
			}
			nextID = nextID%250 + 1 // nonzero, wraps
			c := &chunk{off: off, size: mgr.ChunkSize(off), id: nextID}
			b := window(c)
			for i := range b {
				b[i] = c.id
			}
			occupied[off] = c
			live = append(live, c)
		case r < 7: // free a random chunk, verifying its pattern first
			k := rng.Intn(len(live))
			c := live[k]
			check(c)
			delete(occupied, c.off)
			h.Free(c.off)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		case r == 7: // force a drain: the victim usually still has live chunks
			_, _ = mgr.Shrink()
		case r == 8: // re-expand so the floor guard never starves the drains
			_, _ = mgr.Grow()
		default: // the migrate/retire engine runs here
			mgr.Poll()
		}
	}

	// Wind down: every surviving chunk still carries its pattern at its
	// final address, wherever migration put it.
	for _, c := range live {
		check(c)
		h.Free(c.off)
	}
	for i := 0; i < 10; i++ {
		mgr.Poll()
	}
	for _, info := range m.InstanceInfos() {
		if info.State == multi.Draining {
			t.Fatalf("slot %d still draining after the drain: %+v", info.Slot, info)
		}
		if info.Live != 0 {
			t.Fatalf("slot %d leaks %d chunks", info.Slot, info.Live)
		}
	}
	if migrations == 0 {
		t.Fatal("6000 steps with forced drains never migrated — scenario lost its point")
	}
	c := mgr.Counters()
	if int(c.MigratedChunks) != migrations {
		t.Fatalf("counter says %d migrations, hooks saw %d", c.MigratedChunks, migrations)
	}
	s := mgr.Stats()
	if s.Allocs != s.Frees {
		t.Fatalf("allocs %d != frees %d after the drain", s.Allocs, s.Frees)
	}
}

// TestBuildRejectsMigrationUnderCache pins the enforcement of
// migration's single-owner rule: the depot's magazines and the slab's
// runs hold router-live offsets that a move would strand, so Build
// refuses migration under either layer while the bare router accepts it.
func TestBuildRejectsMigrationUnderCache(t *testing.T) {
	build := func(depot, slab bool) error {
		_, err := stack.Build(stack.Spec{
			Variant:   "4lvl-nb",
			Per:       alloc.Config{Total: 1 << 16, MinSize: 64, MaxSize: 1 << 12},
			Instances: 2,
			Elastic: &elastic.Config{
				MinInstances: 1, MaxInstances: 4,
				Migration: elastic.MigrationConfig{Enabled: true},
			},
			Depot: depot,
			Slab:  slab,
		})
		return err
	}
	for _, c := range []struct{ depot, slab bool }{{true, false}, {false, true}, {true, true}} {
		if err := build(c.depot, c.slab); !errors.Is(err, stack.ErrMigrationCached) {
			t.Errorf("depot=%v slab=%v: Build err = %v, want ErrMigrationCached", c.depot, c.slab, err)
		}
	}
	if err := build(false, false); err != nil {
		t.Fatalf("migration on the bare router must build: %v", err)
	}
}
