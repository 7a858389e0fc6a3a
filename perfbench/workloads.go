package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
)

// workers is the closed-loop client count of every workload: one per
// CPU of the two-CPU machines the benchmark is sized for.
const workers = 2

// sizeTable is the length of each worker's pre-drawn request sizes;
// operations index it with random bits, so drawing sizes costs the timed
// loop one load instead of an exp().
const sizeTable = 1 << 14

// batchOps is how many iterations a time-boxed worker runs between two
// looks at the coordinator's stop flag.
const batchOps = 64

// workload is one named traffic mix. Its generator takes the seed as an
// argument; the library only ever sees the requests it generates.
type workload struct {
	name string
	why  string
	// composite selects the production composite; false runs the paper's
	// back-end alone.
	composite bool
	// every is the fixed 1-in-N interval for latency samples and traces,
	// chosen per workload so a run keeps 10^5..10^6 samples.
	every uint32
	// stepped workloads advance in op-bounded phase steps the coordinator
	// sequences; the others run time-boxed epochs.
	stepped bool
	// rounds is how many times a run builds, prefills and measures a fresh
	// stack, for an equal share of the measured time each, with fresh
	// inputs; the run reports medians over rounds, and the set-up time is
	// the median of the rounds'. Where a build's objects land in the heap
	// decides whether the two workers' handles share cache lines, which
	// moves throughput by up to a third from one build to the next, so the
	// time-boxed workloads take many short rounds. Sawtooth takes a few
	// long ones: each round restarts its cycle from an empty stack.
	rounds int
	make   func(seed uint64, s *sut) state
}

// state is a workload instance bound to one stack under test. prefill,
// step and drain run on worker goroutines, each touching only its own
// share of the state; barrier runs on the coordinator while every
// worker is parked.
type state interface {
	prefill(w *worker)
	step(w *worker, stop *atomic.Bool)
	barrier()
	// live calls fn for every chunk a worker holds (quiescent only).
	live(fn func(off uint64))
	drain(w *worker)
}

var workloads = []*workload{
	{
		name:      "small-local",
		why:       "private log-uniform 8 B-2 KiB churn: slab magazines serve almost every call, so slab changes show and tree, router and elastic ones should not",
		composite: true,
		every:     256,
		rounds:    16,
		make:      newSmallLocal,
	},
	{
		name:      "server-handoff",
		why:       "webserver size mix over a shared 8192-slot connection table: half the frees are remote, driving the frontend magazine/depot exchange",
		composite: true,
		every:     128,
		rounds:    16,
		make:      newHandoff,
	},
	{
		name:      "sawtooth",
		why:       "4-64 KiB live set ramped to 85% of capacity and drained to 5%, Poll at phase barriers: the only workload where elastic grow/retire and mem commit/decommit run",
		composite: true,
		every:     16,
		stepped:   true,
		rounds:    4,
		make:      newSawtooth,
	},
	{
		name:   "tree-occupancy",
		why:    "the paper's back-end alone at 60% fill with 64 B-64 KiB chunks: only the lock-free tree works, testing its fragmentation claim",
		every:  16,
		rounds: 16,
		make:   newOccupancy,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// logUniformSizes draws sizeTable sizes per worker, log-uniform in
// [lo, hi] bytes, from a generator keyed by seed and a per-workload salt.
func logUniformSizes(seed, salt uint64, lo, hi float64) [workers][]uint64 {
	var out [workers][]uint64
	for id := range out {
		r := rand.New(rand.NewPCG(seed, salt+uint64(id)))
		t := make([]uint64, sizeTable)
		for i := range t {
			t[i] = uint64(math.Min(hi, math.Floor(lo*math.Pow(hi/lo, r.Float64()))))
		}
		out[id] = t
	}
	return out
}

func emptyChunks(n int) []chunk {
	c := make([]chunk, n)
	for i := range c {
		c[i].off = noOff
	}
	return c
}

// smallLocal: each worker churns a private working set; every free is
// local.
type smallLocal struct {
	sizes [workers][]uint64
	slots [workers][]chunk
}

const smallLocalSlots = 4096

func newSmallLocal(seed uint64, _ *sut) state {
	st := &smallLocal{sizes: logUniformSizes(seed, 1, 8, 2048)}
	for id := range st.slots {
		st.slots[id] = emptyChunks(smallLocalSlots)
	}
	return st
}

func (st *smallLocal) prefill(w *worker) {
	sizes, slots := st.sizes[w.id], st.slots[w.id]
	for i := range slots {
		size := sizes[w.next()&(sizeTable-1)]
		if off, ok := w.alloc(size); ok {
			slots[i] = chunk{off, size}
		}
	}
}

func (st *smallLocal) step(w *worker, stop *atomic.Bool) {
	sizes, slots := st.sizes[w.id], st.slots[w.id]
	for !stop.Load() {
		for k := 0; k < batchOps; k++ {
			r := w.next()
			c := &slots[r&(smallLocalSlots-1)]
			if c.off != noOff {
				w.free(c.off, c.size)
				c.off = noOff
			}
			size := sizes[(r>>32)&(sizeTable-1)]
			if off, ok := w.alloc(size); ok {
				*c = chunk{off, size}
			}
		}
	}
}

func (st *smallLocal) barrier() {}

func (st *smallLocal) live(fn func(uint64)) {
	for _, slots := range st.slots {
		for _, c := range slots {
			if c.off != noOff {
				fn(c.off)
			}
		}
	}
}

func (st *smallLocal) drain(w *worker) {
	for i, c := range st.slots[w.id] {
		if c.off != noOff {
			w.free(c.off, c.size)
			st.slots[w.id][i].off = noOff
		}
	}
}

// handoff: a connection table both workers write. A worker allocates a
// response buffer, swaps it into a random slot and frees whatever it
// displaced — about half the time another worker's chunk.
type handoff struct {
	table []atomic.Uint64
}

const handoffSlots = 8192

// handoffSizes is the examples/webserver request mix.
var handoffSizes = [8]uint64{200, 200, 200, 1500, 1500, 4 << 10, 16 << 10, 64 << 10}

// A table entry packs offset<<8 | (size index + 1); zero is an empty slot.
func packEntry(off uint64, idx uint64) uint64 { return off<<8 | (idx + 1) }

func unpackEntry(e uint64) (off, size uint64) { return e >> 8, handoffSizes[e&0xff-1] }

func newHandoff(uint64, *sut) state {
	return &handoff{table: make([]atomic.Uint64, handoffSlots)}
}

func (st *handoff) prefill(w *worker) {
	for i := w.id; i < handoffSlots; i += workers {
		idx := w.next() % uint64(len(handoffSizes))
		if off, ok := w.alloc(handoffSizes[idx]); ok {
			st.table[i].Store(packEntry(off, idx))
		}
	}
}

func (st *handoff) step(w *worker, stop *atomic.Bool) {
	for !stop.Load() {
		for k := 0; k < batchOps; k++ {
			r := w.next()
			idx := (r >> 32) % uint64(len(handoffSizes))
			off, ok := w.alloc(handoffSizes[idx])
			if !ok {
				continue
			}
			if old := st.table[r&(handoffSlots-1)].Swap(packEntry(off, idx)); old != 0 {
				w.free(unpackEntry(old))
			}
		}
	}
}

func (st *handoff) barrier() {}

func (st *handoff) live(fn func(uint64)) {
	for i := range st.table {
		if e := st.table[i].Load(); e != 0 {
			off, _ := unpackEntry(e)
			fn(off)
		}
	}
}

func (st *handoff) drain(w *worker) {
	for i := w.id; i < handoffSlots; i += workers {
		if e := st.table[i].Swap(0); e != 0 {
			w.free(unpackEntry(e))
		}
	}
}

// sawtooth: each worker ramps its share of the live set up to a high
// mark of the stack's initial capacity, holds it, drains it to a low
// mark and holds again. The coordinator judges the marks on the router's
// live bytes and calls Poll at every step barrier, so the elastic
// manager sees the same utilization curve on every run.
type sawtooth struct {
	s      *sut
	sizes  [workers][]uint64
	lists  [workers][]chunk
	phase  int
	held   int
	hi, lo uint64
}

const (
	phaseRamp = iota
	phaseHold
	phaseDrain
	phaseRest
)

const (
	sawtoothHigh = 0.85
	sawtoothLow  = 0.05
	// sawtoothEdgeOps is each worker's operations per ramp or drain step:
	// few enough that one step moves utilization by about 1.5%, so the
	// watermark policy's hysteresis grows the fleet before a ramp runs it
	// full.
	sawtoothEdgeOps = 64
	// sawtoothHoldOps and sawtoothHoldSteps size the hold phases: 16k
	// churn operations each, which frees every chunk of the small live
	// set several times over, so a draining instance empties and retires.
	sawtoothHoldOps   = 512
	sawtoothHoldSteps = 16
	sawtoothMaxLive   = 1 << 15
)

func newSawtooth(seed uint64, s *sut) state {
	st := &sawtooth{s: s, sizes: logUniformSizes(seed, 3, 4<<10, 64<<10)}
	for id := range st.lists {
		st.lists[id] = make([]chunk, 0, sawtoothMaxLive)
	}
	st.hi = uint64(sawtoothHigh * float64(s.capacity))
	st.lo = uint64(sawtoothLow * float64(s.capacity))
	return st
}

func (st *sawtooth) prefill(*worker) {}

func (st *sawtooth) step(w *worker, _ *atomic.Bool) {
	sizes, list := st.sizes[w.id], st.lists[w.id]
	ops := sawtoothEdgeOps
	if st.phase == phaseHold || st.phase == phaseRest {
		ops = sawtoothHoldOps
	}
	for k := 0; k < ops; k++ {
		r := w.next()
		if st.phase != phaseRamp && len(list) > 0 {
			i := int((r >> 32) * uint64(len(list)) >> 32)
			w.free(list[i].off, list[i].size)
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
		}
		if st.phase == phaseDrain || len(list) == cap(list) {
			continue
		}
		size := sizes[r&(sizeTable-1)]
		if off, ok := w.alloc(size); ok {
			list = append(list, chunk{off, size})
		}
	}
	st.lists[w.id] = list
}

func (st *sawtooth) barrier() {
	held := st.s.routerLive()
	switch st.phase {
	case phaseRamp:
		if held >= st.hi {
			st.phase, st.held = phaseHold, 0
		}
	case phaseHold:
		if st.held++; st.held >= sawtoothHoldSteps {
			st.phase = phaseDrain
		}
	case phaseDrain:
		// Chunks parked in the layers' caches count as live, so the workers
		// may run out of chunks to free above the low mark.
		if held <= st.lo || len(st.lists[0])+len(st.lists[1]) == 0 {
			st.phase, st.held = phaseRest, 0
		}
	case phaseRest:
		if st.held++; st.held >= sawtoothHoldSteps {
			st.phase = phaseRamp
		}
	}
	st.s.poll()
}

func (st *sawtooth) live(fn func(uint64)) {
	for _, list := range st.lists {
		for _, c := range list {
			fn(c.off)
		}
	}
}

func (st *sawtooth) drain(w *worker) {
	for _, c := range st.lists[w.id] {
		w.free(c.off, c.size)
	}
	st.lists[w.id] = st.lists[w.id][:0]
}

// occupancy: the back-end is filled to a fixed share of its bytes, then
// each worker frees a random chunk of its own and allocates the same
// size again, holding the fill level constant.
type occupancy struct {
	s     *sut
	sizes [workers][]uint64
	lists [workers][]chunk
}

const occupancyFill = 0.60

func newOccupancy(seed uint64, s *sut) state {
	return &occupancy{s: s, sizes: logUniformSizes(seed, 4, 64, 64<<10)}
}

func (st *occupancy) prefill(w *worker) {
	target := uint64(occupancyFill * float64(st.s.capacity) / workers)
	sizes := st.sizes[w.id]
	list := make([]chunk, 0, 1<<14)
	for held := uint64(0); held < target; {
		size := sizes[w.next()&(sizeTable-1)]
		off, ok := w.alloc(size)
		if !ok {
			break
		}
		held += st.s.chunkSize(off)
		list = append(list, chunk{off, size})
	}
	st.lists[w.id] = list
}

func (st *occupancy) step(w *worker, stop *atomic.Bool) {
	list := st.lists[w.id]
	for !stop.Load() {
		for k := 0; k < batchOps; k++ {
			c := &list[w.pick(len(list))]
			if c.off != noOff {
				w.free(c.off, c.size)
				c.off = noOff
			}
			if off, ok := w.alloc(c.size); ok {
				c.off = off
			}
		}
	}
}

func (st *occupancy) barrier() {}

func (st *occupancy) live(fn func(uint64)) {
	for _, list := range st.lists {
		for _, c := range list {
			if c.off != noOff {
				fn(c.off)
			}
		}
	}
}

func (st *occupancy) drain(w *worker) {
	for i, c := range st.lists[w.id] {
		if c.off != noOff {
			w.free(c.off, c.size)
			st.lists[w.id][i].off = noOff
		}
	}
}
