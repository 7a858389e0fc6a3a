// Package stack assembles allocator layer stacks: any alloc.Allocator
// leaf wrapped by any combination of the composable layers — the
// multi-instance router (internal/multi), the caching front-end
// (internal/frontend), the trace recorder (internal/trace) and the
// materialized arena (internal/arena).
//
// Every layer implements the full composable contract (alloc.Allocator +
// alloc.ChunkSizer, forwarding alloc.Spanner, alloc.Scrubber and
// alloc.LayerStatser), so the layers stack in any order; Build fixes the
// canonical production order the paper's conclusions call for:
//
//	leaf variant(s) -> multi router -> elastic manager
//	                -> caching front-end (magazines + depot) -> slab
//	                -> trace -> arena
//
// Common compositions are also registered as allocator variants
// ("multi4+4lvl-nb", the depot-backed "depot+4lvl-nb" and
// "depot+multi4+4lvl-nb", the slab and elastic stacks), which
// makes them first-class citizens of every harness in the repository:
// nbbsbench sweeps, nbbsstress verification, and the conformance suite
// build them by name like any leaf allocator. For those names the
// Config.Total is the global span; the multi router splits it evenly
// over up to four instances (fewer when MaxSize needs a larger share).
package stack

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/arena"
	"repro/internal/elastic"
	"repro/internal/fault"
	"repro/internal/frontend"
	"repro/internal/mem"
	"repro/internal/multi"
	"repro/internal/slab"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrMigrationCached is Build's refusal to combine elastic live-chunk
// migration with an offset-caching layer (Depot or Slab): migration moves
// a live chunk to a new offset, and a magazine, depot or slab run still
// holding the old offset would hand out memory the router no longer owns
// there.
var ErrMigrationCached = errors.New("stack: elastic migration cannot run under an offset-caching layer (Depot or Slab)")

// Spec describes a layer stack bottom-up.
type Spec struct {
	// Variant is the leaf allocator's registered label. Registered
	// composites work too: a stack can be a layer of another stack.
	Variant string
	// Per is the per-instance geometry (the global span of the stack is
	// Per.Total * Instances).
	Per alloc.Config
	// Instances >= 1 inserts the multi-instance router with the given
	// routing Policy (a 1-instance router is valid: routing introspection
	// works, fallback is a no-op); 0 builds a bare leaf.
	Instances int
	// Policy selects handle routing for the multi router.
	Policy multi.Policy
	// Elastic, when non-nil, wraps the router with the capacity manager:
	// the instance set grows and shrinks at runtime under the given
	// watermark policy (Instances is the initial set). Requires
	// Instances >= 1 and excludes Materialize (a materialized region
	// cannot follow a growing offset span). Enabling Migration is a build
	// error under Depot or Slab: those layers cache offsets a migration
	// would move.
	Elastic *elastic.Config
	// Depot inserts the caching front-end: per-worker magazines exchanged
	// whole with a per-size-class depot in O(1), with refills and drains
	// crossing into the back-end as batches through the
	// alloc.BatchAllocator contract. Magazine is the per-class magazine
	// capacity and DepotCapacity bounds the full magazines the depot
	// retains per class (0 = defaults).
	Depot         bool
	Magazine      int
	DepotCapacity int
	// Slab inserts the size-class layer above the caching front-end (or
	// whatever sits below it): requests up to the cutoff are served from
	// fixed-size runs carved out of buddy chunks, larger requests pass
	// through. SlabCutoff bounds the largest class (0 =
	// slab.DefaultCutoff, clamped to the geometry).
	Slab       bool
	SlabCutoff uint64
	// Record, when non-nil, inserts the trace-recording layer appending
	// to this trace.
	Record *trace.Trace
	// Materialize wraps the stack in a real-memory arena sized to the
	// global offset span (per-instance sub-arenas over a multi router).
	// Over a Mapped stack the arena borrows the router's region instead of
	// allocating its own — which is also what permits the formerly
	// rejected Elastic+Materialize composition: the byte windows follow
	// the router's commit/decommit lifecycle as the table grows.
	Materialize bool
	// Mapped backs each instance's offset window with platform mapped
	// memory bound to the multi router (requires Instances >= 1): windows
	// are committed while their slot is published and decommitted when it
	// retires, so an elastic shrink returns RSS to the OS, and each commit
	// places its window on a NUMA node (internal/mem; on non-Linux
	// platforms and single-node machines the portable fallback keeps the
	// bookkeeping without the physical effect).
	Mapped bool
	// Faults routes the mapped region's lifecycle syscalls through a
	// fault injector (requires Mapped; nil injects nothing). Tests and
	// the chaos harness schedule failures on it after the build — the
	// build itself needs the initial commits to succeed.
	Faults *fault.Injector
	// Telemetry, when non-nil, inserts a latency probe above every layer
	// boundary (backend — unless elastic sits directly on the router —
	// elastic, frontend, slab) and wires each event-emitting
	// layer's flight-recorder sink into the registry's ring. Nil is the
	// disabled state: no probes, no sinks, no hot-path cost.
	Telemetry *telemetry.Registry
}

// Stack is a built layer stack. Top serves the composed contract; the
// typed layer pointers are nil for layers the spec did not request and
// exist for per-layer introspection (stats, flushes, byte windows).
type Stack struct {
	// Top is the outermost layer; use it as the allocator.
	Top alloc.Allocator
	// Backend is the leaf allocator or the multi router over the leaves —
	// the stack below any caching/tracing/materializing layers.
	Backend alloc.Allocator
	// Multi is the router layer (nil for single-instance stacks).
	Multi *multi.Multi
	// Elastic is the capacity manager (nil when Spec.Elastic was nil).
	Elastic *elastic.Manager
	// Frontend is the caching layer (nil when not Spec.Depot).
	Frontend *frontend.Allocator
	// Slab is the size-class layer (nil when not Spec.Slab).
	Slab *slab.Allocator
	// Trace is the recording layer (nil when Record was nil).
	Trace *trace.Allocator
	// Arena is the materialized-region layer (nil when not Materialize).
	Arena *arena.Allocator
	// Mem is the mapped backing region (nil when not Mapped).
	Mem *mem.Region
	// Telemetry is the registry the probes and sinks feed (nil when
	// Spec.Telemetry was nil).
	Telemetry *telemetry.Registry
	// Variant is the leaf allocator label the stack was built from.
	Variant string

	scrubbable bool
}

// leafOf walks a built allocator down to its bottom-most leaf: through
// single-inner wrappers via Unwrap, and through a router via its first
// instance. Needed because a stack can be a layer of another stack
// (registered composites build as leaves), and leaf-only properties like
// scrubbability must be probed on the real leaf, not on a wrapper that
// implements Scrub by forwarding.
func leafOf(a alloc.Allocator) alloc.Allocator {
	for {
		switch v := a.(type) {
		case interface{ Unwrap() alloc.Allocator }:
			a = v.Unwrap()
		case *multi.Multi:
			a = v.Instance(0)
		default:
			return a
		}
	}
}

// Build assembles the stack described by the spec.
func Build(s Spec) (*Stack, error) {
	st := &Stack{Variant: s.Variant}
	if s.Elastic != nil {
		if s.Instances < 1 {
			return nil, fmt.Errorf("stack: elastic requires the multi router (Instances >= 1)")
		}
		if s.Materialize && !s.Mapped {
			return nil, fmt.Errorf("stack: elastic stacks can only materialize over mapped memory (Mapped), so the byte windows follow the growing instance table")
		}
		if s.Elastic.Migration.Enabled && (s.Depot || s.Slab) {
			return nil, ErrMigrationCached
		}
	}
	if s.Mapped && s.Instances < 1 {
		return nil, fmt.Errorf("stack: mapped memory requires the multi router (Instances >= 1); a fixed single-instance stack wants Materialize")
	}
	if s.Faults != nil && !s.Mapped {
		return nil, fmt.Errorf("stack: fault injection requires mapped memory (Mapped) — the injector shims the region's lifecycle syscalls")
	}
	if s.Instances >= 1 {
		m, err := multi.New(s.Variant, s.Instances, s.Per, s.Policy)
		if err != nil {
			return nil, err
		}
		if s.Mapped {
			r, err := mem.New(m.InstanceSpan(), m.Slots(), mem.WithFaultInjector(s.Faults))
			if err != nil {
				return nil, fmt.Errorf("stack: reserving mapped backing: %w", err)
			}
			if err := m.BindMemory(r); err != nil {
				return nil, fmt.Errorf("stack: binding mapped backing: %w", err)
			}
			st.Mem = r
		}
		st.Multi = m
		st.Backend = m
	} else {
		a, err := alloc.Build(s.Variant, s.Per)
		if err != nil {
			return nil, err
		}
		if _, ok := a.(alloc.ChunkSizer); !ok {
			return nil, fmt.Errorf("stack: leaf %s cannot report chunk sizes", a.Name())
		}
		st.Backend = a
	}
	_, st.scrubbable = leafOf(st.Backend).(alloc.Scrubber)

	// probe wraps the current top with a latency-recording boundary when
	// telemetry is enabled (a no-op registry-less build inserts nothing).
	probe := func(layer string) error {
		if s.Telemetry == nil {
			return nil
		}
		p, err := telemetry.NewProbe(st.Top, s.Telemetry.Series(layer), s.Telemetry.SampleInterval())
		if err != nil {
			return err
		}
		st.Top = p
		return nil
	}

	st.Top = st.Backend
	if s.Elastic == nil {
		// With elastic the manager must sit directly on the router (it
		// grows the instance table in place), so the backend boundary is
		// observed through the elastic probe instead.
		if err := probe("backend"); err != nil {
			return nil, err
		}
	}
	if s.Elastic != nil {
		mgr, err := elastic.New(st.Multi, *s.Elastic)
		if err != nil {
			return nil, err
		}
		st.Elastic = mgr
		st.Top = mgr
		if err := probe("elastic"); err != nil {
			return nil, err
		}
	}
	if s.Depot {
		fe, err := frontend.New(st.Top, s.Magazine, frontend.WithDepot(s.DepotCapacity))
		if err != nil {
			return nil, err
		}
		st.Frontend = fe
		st.Top = fe
		if st.Elastic != nil {
			// Depot cooperation: a shrink must be able to pull depot-parked
			// magazines of the draining instance back down, or its live
			// count never reaches zero.
			st.Elastic.OnDrainRange(fe.DrainDepotRange)
		}
		if err := probe("frontend"); err != nil {
			return nil, err
		}
	}
	if s.Slab {
		sl, err := slab.New(st.Top, s.SlabCutoff)
		if err != nil {
			return nil, err
		}
		st.Slab = sl
		st.Top = sl
		if st.Elastic != nil {
			// Run cooperation: a run carved from a draining instance's
			// window pins its live count like a parked magazine does, so
			// retirement needs the slab's empty runs released and its
			// handle magazines fenced for the window.
			st.Elastic.OnDrainRange(sl.DrainRange)
		}
		if err := probe("slab"); err != nil {
			return nil, err
		}
	}
	if s.Record != nil {
		tr, err := trace.NewAllocator(st.Top, s.Record)
		if err != nil {
			return nil, err
		}
		st.Trace = tr
		st.Top = tr
	}
	if s.Materialize {
		ar, err := arena.Materialize(st.Top)
		if err != nil {
			return nil, err
		}
		st.Arena = ar
		st.Top = ar
	}
	if s.Telemetry != nil {
		// Flight-recorder wiring: every lifecycle-emitting layer publishes
		// into the registry's ring under its own source label. Installed
		// after the build so the initial commits stay unrecorded (they are
		// construction, not lifecycle).
		st.Telemetry = s.Telemetry
		if st.Elastic != nil {
			st.Elastic.SetEventSink(s.Telemetry.Sink("elastic"))
		}
		if st.Mem != nil {
			st.Mem.SetEventSink(s.Telemetry.Sink("mem"))
		}
		s.Faults.SetEventSink(s.Telemetry.Sink("fault"))
		if st.Frontend != nil {
			st.Frontend.SetEventSink(s.Telemetry.Sink("depot"))
		}
		if st.Slab != nil {
			st.Slab.SetEventSink(s.Telemetry.Sink("slab"))
		}
	}
	return st, nil
}

// CanScrub reports whether the leaf allocators support metadata
// scrubbing (the wrapping layers always forward Scrub, and the caching
// front-end additionally flushes its magazines on Scrub).
func (st *Stack) CanScrub() bool { return st.scrubbable }

// Scrub quiesces the whole stack — flushing front-end magazines and
// rebuilding leaf metadata where supported — and reports whether the
// leaves scrubbed. Quiescent points only.
func (st *Stack) Scrub() bool {
	if s, ok := st.Top.(alloc.Scrubber); ok {
		s.Scrub()
	}
	return st.scrubbable
}

// LayerStats returns the stack's per-layer counters, top-down.
func (st *Stack) LayerStats() []alloc.LayerStats { return alloc.StackStats(st.Top) }

// registryInstances picks the instance count for a registry-built multi
// composite: up to want instances, halved until each instance's share of
// the global total can still serve MaxSize.
func registryInstances(want int, cfg alloc.Config) int {
	n := want
	for n > 1 && cfg.Total/uint64(n) < cfg.MaxSize {
		n /= 2
	}
	return n
}

// perConfig splits a global config over n instances.
func perConfig(cfg alloc.Config, n int) alloc.Config {
	per := cfg
	per.Total = cfg.Total / uint64(n)
	return per
}

func init() {
	// Composite variants over the paper's fastest leaf. Config.Total is
	// the global span; the multi composites split it over the instances.
	alloc.Register("multi4+4lvl-nb", func(cfg alloc.Config) (alloc.Allocator, error) {
		n := registryInstances(4, cfg)
		st, err := Build(Spec{Variant: "4lvl-nb", Per: perConfig(cfg, n), Instances: n})
		if err != nil {
			return nil, err
		}
		return st.Top, nil
	})
	// Depot composites: the caching front-end with the shared magazine
	// depot, exchanging full magazines in O(1) and crossing into the
	// back-end only in batches.
	alloc.Register("depot+4lvl-nb", func(cfg alloc.Config) (alloc.Allocator, error) {
		st, err := Build(Spec{Variant: "4lvl-nb", Per: cfg, Depot: true})
		if err != nil {
			return nil, err
		}
		return st.Top, nil
	})
	alloc.Register("depot+multi4+4lvl-nb", func(cfg alloc.Config) (alloc.Allocator, error) {
		n := registryInstances(4, cfg)
		st, err := Build(Spec{Variant: "4lvl-nb", Per: perConfig(cfg, n), Instances: n, Depot: true})
		if err != nil {
			return nil, err
		}
		return st.Top, nil
	})
	// Slab composites: the size-class layer over a bare leaf, over the
	// depot stack (runs refill through the batched depot path), and over
	// the full mapped elastic stack (runs participate in retirement via
	// the DrainRange fence).
	alloc.Register("slab+4lvl-nb", func(cfg alloc.Config) (alloc.Allocator, error) {
		st, err := Build(Spec{Variant: "4lvl-nb", Per: cfg, Slab: true})
		if err != nil {
			return nil, err
		}
		return st.Top, nil
	})
	alloc.Register("slab+depot+multi4+4lvl-nb", func(cfg alloc.Config) (alloc.Allocator, error) {
		n := registryInstances(4, cfg)
		st, err := Build(Spec{Variant: "4lvl-nb", Per: perConfig(cfg, n), Instances: n, Depot: true, Slab: true})
		if err != nil {
			return nil, err
		}
		return st.Top, nil
	})
	alloc.Register("slab+mapped+elastic+multi+4lvl-nb", func(cfg alloc.Config) (alloc.Allocator, error) {
		n := registryInstances(4, cfg)
		ec := &elastic.Config{MinInstances: 1, MaxInstances: 2 * n}
		st, err := Build(Spec{Variant: "4lvl-nb", Per: perConfig(cfg, n), Instances: n, Elastic: ec, Mapped: true, Slab: true})
		if err != nil {
			return nil, err
		}
		return st.Top, nil
	})
	// Elastic composite: the capacity manager over the multi router. The
	// initial set covers the requested global span (so conformance runs
	// that never Poll see the usual fixed geometry); the manager may
	// retire down to one instance at low utilization and grow up to twice
	// the initial set at high, once something drives Poll.
	alloc.Register("elastic+multi+4lvl-nb", func(cfg alloc.Config) (alloc.Allocator, error) {
		n := registryInstances(4, cfg)
		ec := &elastic.Config{MinInstances: 1, MaxInstances: 2 * n}
		st, err := Build(Spec{Variant: "4lvl-nb", Per: perConfig(cfg, n), Instances: n, Elastic: ec})
		if err != nil {
			return nil, err
		}
		return st.Top, nil
	})
	// Mapped elastic composite: the same capacity manager, but every
	// instance window is backed by platform mapped memory following the
	// slot lifecycle — a retirement decommits its window (RSS returns to
	// the OS) and a later grow recommits it.
	alloc.Register("mapped+elastic+multi+4lvl-nb", func(cfg alloc.Config) (alloc.Allocator, error) {
		n := registryInstances(4, cfg)
		ec := &elastic.Config{MinInstances: 1, MaxInstances: 2 * n}
		st, err := Build(Spec{Variant: "4lvl-nb", Per: perConfig(cfg, n), Instances: n, Elastic: ec, Mapped: true})
		if err != nil {
			return nil, err
		}
		return st.Top, nil
	})
	// Predictive elastic composite: the same mapped lifecycle under the
	// EWMA + slope policy, which pre-grows ahead of utilization ramps and
	// rides out transient troughs instead of draining into them. No
	// composite enables chunk migration: registry stacks feed generic
	// harnesses (conformance, differential) whose oracles assume stable
	// offsets, and migration is opt-in for owners that track moves.
	alloc.Register("predictive+mapped+elastic+multi+4lvl-nb", func(cfg alloc.Config) (alloc.Allocator, error) {
		n := registryInstances(4, cfg)
		ec := &elastic.Config{
			MinInstances: 1,
			MaxInstances: 2 * n,
			Policy:       elastic.NewPredictivePolicy(elastic.PredictiveConfig{}),
		}
		st, err := Build(Spec{Variant: "4lvl-nb", Per: perConfig(cfg, n), Instances: n, Elastic: ec, Mapped: true})
		if err != nil {
			return nil, err
		}
		return st.Top, nil
	})
}
