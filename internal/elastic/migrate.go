// Live-chunk migration: the bounded-retirement half of the policy
// redesign. A draining slot whose last chunks belong to long-lived
// owners would otherwise stay draining until those owners happen to
// free — the stall the straggler regression test pins. The migration
// step copies such stragglers onto active slots (alloc-new / copy /
// free-old) so TryRetire converges in a bounded number of Polls.
//
// Why this rides the draining fence: a draining slot refuses new
// allocations (the live-increment-before-state-check ordering in
// multi.Handle.tryAllocOn), so the slot's live set can only shrink while
// the manager enumerates it — enumerate-then-move cannot race a chunk
// INTO the window it is vacating. Frees of enumerated chunks are the
// remaining hazard, which is why ownership matters: a chunk picked for
// migration is freed by the manager, and its owner learns the new
// offset through the OnMigrate hooks before Poll returns. Owners must
// not free a chunk concurrently with a Poll that may migrate it — the
// same quiescence contract Scrub already imposes, narrowed to chunks on
// draining slots (and a straggler is by definition a chunk nobody is
// busy freeing).
package elastic

import (
	"repro/internal/alloc"
	"repro/internal/multi"
)

// Migration defaults.
const (
	// DefaultMigrateBatch bounds the chunks moved off one slot per Poll,
	// so a migration pass stays a bounded slice of a decision step.
	DefaultMigrateBatch = 64
	// DefaultMigrateAfter is how many Polls a slot must have been
	// draining before migration starts: the cheap paths (drain hooks
	// pulling parked magazines down, owners freeing on their own) get
	// that long to empty the slot for free.
	DefaultMigrateAfter = 1
)

// MigrationConfig tunes the migration step of the retire path. The zero
// value disables migration: moving a chunk changes its offset, so only
// owners prepared to track moves through OnMigrate hooks should enable
// it. stack.Build rejects it under the offset-caching layers (the depot
// front-end and the slab), whose parked offsets a move would strand.
type MigrationConfig struct {
	// Enabled turns the migration step on.
	Enabled bool
	// MaxChunksPerPoll bounds the chunks moved off one draining slot per
	// Poll (0 = DefaultMigrateBatch).
	MaxChunksPerPoll int
	// AfterPolls is how many Polls a slot must have been draining before
	// its stragglers are moved (0 = DefaultMigrateAfter).
	AfterPolls int
}

func (c MigrationConfig) withDefaults() MigrationConfig {
	if c.MaxChunksPerPoll <= 0 {
		c.MaxChunksPerPoll = DefaultMigrateBatch
	}
	if c.AfterPolls <= 0 {
		c.AfterPolls = DefaultMigrateAfter
	}
	return c
}

// MigrateHook observes one moved chunk: the straggler that lived at
// oldOff now lives at newOff (size reserved bytes, contents copied when
// the stack is memory-backed). Hooks run under the manager's decision
// mutex before Poll returns, in registration order; owners use them to
// rewrite outstanding references. Register during stack construction or
// before the first migrating Poll.
type MigrateHook func(oldOff, newOff, size uint64)

// OnMigrate registers a migration observer.
func (mgr *Manager) OnMigrate(fn MigrateHook) {
	mgr.mu.Lock()
	mgr.migrateHooks = append(mgr.migrateHooks, fn)
	mgr.mu.Unlock()
}

// migrateSlot moves up to the configured batch of live chunks off
// draining slot k onto active slots and returns how many moved. Called
// with mu held. Replacement chunks come through the router's bulk
// contract (one batched crossing per size class run), bytes are copied
// when a mapped region backs the windows, and the old offsets go back
// down as one batch — after every copy completed, so a partial pass
// never leaves a chunk half-moved: a straggler either still lives at
// its old offset or is fully copied and re-homed.
func (mgr *Manager) migrateSlot(k int, act *Action) int {
	stragglers := mgr.inner.Stragglers(k, mgr.cfg.Migration.MaxChunksPerPoll)
	if len(stragglers) == 0 {
		return 0
	}
	if mgr.mig == nil {
		mgr.mig = mgr.inner.NewHandle()
	}
	region := mgr.inner.Memory()
	span := mgr.inner.InstanceSpan()
	type move struct {
		old, new, size uint64
	}
	var moves []move
	// Alloc-new in same-size runs through the bulk contract. A short
	// batch means the active fleet cannot host the remainder this step:
	// stop, count the refusal, and let a later Poll retry — nothing was
	// touched for the chunks left behind.
	for i := 0; i < len(stragglers); {
		j := i + 1
		for j < len(stragglers) && stragglers[j].Size == stragglers[i].Size {
			j++
		}
		got := alloc.HandleAllocBatch(mgr.mig, stragglers[i].Size, j-i)
		for n, newOff := range got {
			s := stragglers[i+n]
			// The draining fence keeps the replacement off slot k itself
			// (allocations skip draining slots), so the copy below never
			// aliases its source.
			moves = append(moves, move{old: s.Offset, new: newOff, size: s.Size})
		}
		if len(got) < j-i {
			mgr.counters.MigrateFails++
			mgr.emit("migrate-fail", uint64(k), uint64(len(stragglers)-len(moves)))
			break
		}
		i = j
	}
	if len(moves) == 0 {
		return 0
	}
	olds := make([]uint64, 0, len(moves))
	for _, mv := range moves {
		if region != nil {
			dst := region.Bytes(mgr.inner.InstanceOf(mv.new), mv.new%span, mv.size)
			src := region.Bytes(k, mv.old%span, mv.size)
			copy(dst, src)
		}
		olds = append(olds, mv.old)
	}
	alloc.HandleFreeBatch(mgr.mig, olds)
	for _, mv := range moves {
		mgr.counters.MigratedChunks++
		mgr.counters.MigratedBytes += mv.size
		for _, fn := range mgr.migrateHooks {
			fn(mv.old, mv.new, mv.size)
		}
		mgr.emit("migrate", mv.old, mv.new)
	}
	act.Migrated += len(moves)
	return len(moves)
}

// DrainAge is one draining slot's time-to-retire-so-far.
type DrainAge struct {
	// Slot is the table position.
	Slot int
	// Polls is how many Poll steps the slot has been draining.
	Polls uint64
	// Live is the chunk count still pinning it.
	Live int64
}

// DrainAges reports how long each currently draining slot has waited,
// in Poll steps — the per-slot time-to-retire gauge nbbsinfo prints.
func (mgr *Manager) DrainAges() []DrainAge {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	var out []DrainAge
	for _, info := range mgr.inner.InstanceInfos() {
		if info.State != multi.Draining {
			continue
		}
		age := uint64(0)
		if since, ok := mgr.drainSince[info.Slot]; ok {
			age = mgr.counters.Polls - since
		}
		out = append(out, DrainAge{Slot: info.Slot, Polls: age, Live: info.Live})
	}
	return out
}
