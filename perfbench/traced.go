package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/frontend"
	"repro/internal/geometry"
	"repro/internal/mem"
	"repro/internal/multi"
	"repro/internal/slab"
)

// The layer boundaries the traced run times, top-down, by module name.
// elastic has no per-operation path; its spans are the Poll calls.
const (
	lSlab = iota
	lFrontend
	lMulti
	lBunch
	lElastic
	numLayers
)

var layerName = [numLayers]string{"slab", "frontend", "multi", "bunch", "elastic"}

// Span operations. The low bit separates the allocation side from the
// release side.
const (
	opAlloc = iota
	opFree
	opAllocBatch
	opFreeBatch
	opPoll
)

var opName = [...]string{"alloc", "free", "alloc_batch", "free_batch", "poll"}

// span is one timed call into a layer. parent indexes the enclosing span
// in the same context's buffer, or is -1 for a root.
type span struct {
	start  int64
	dur    int64
	parent int32
	trace  uint32
	layer  uint8
	op     uint8
}

// spanCap bounds each context's span buffer, allocated before the run.
const spanCap = 1 << 20

// tctx is the tracing state of one goroutine, written only by it.
type tctx struct {
	id      uint32
	sampled bool
	// coord marks the coordinator: every call it makes is traced, as a
	// root span when nothing encloses it (Poll and the drain hooks it
	// fires work on the workers' behalf, outside their operations).
	coord  bool
	traces uint32
	open   int32
	spans  []span
	calls  [numLayers]uint64
	// pad keeps each goroutine's counters off its neighbours' cache line.
	_ [64]byte
}

func (c *tctx) push(layer, op uint8) int32 {
	if len(c.spans) == cap(c.spans) {
		return -1
	}
	if c.open < 0 {
		c.traces++
	}
	idx := int32(len(c.spans))
	c.spans = append(c.spans, span{parent: c.open, trace: c.id<<28 | c.traces, layer: layer, op: op, start: nanotime()})
	c.open = idx
	return idx
}

func (c *tctx) pop(idx int32) {
	sp := &c.spans[idx]
	sp.dur = nanotime() - sp.start
	c.open = sp.parent
	if c.open < 0 && !c.coord {
		c.sampled = false
	}
}

// tracer is the span recorder shared by every shim of one traced stack:
// one context per worker, one for the coordinator. Each context is
// written by its own goroutine only.
type tracer struct {
	every uint32
	// gs identifies the goroutine of each context: read on every traced
	// call, written once when a worker starts, so it sits on a line of
	// its own that the workers' caches share without bouncing.
	gs      [workers + 1]atomic.Uintptr
	_       [64]byte
	ctxs    [workers + 1]tctx
	stray   atomic.Uint64
	leafMu  sync.Mutex
	leaves  []*shim
	polls   uint64
	pollDur int64
}

func newTracer(every uint32) *tracer {
	t := &tracer{every: every}
	for i := range t.ctxs {
		c := &t.ctxs[i]
		c.id, c.open = uint32(i), -1
		c.spans = make([]span, 0, spanCap)
	}
	coord := &t.ctxs[workers]
	coord.coord, coord.sampled = true, true
	coord.spans = make([]span, 0, spanCap>>4)
	t.gs[workers].Store(curg())
	return t
}

// bind registers the calling goroutine as worker id.
func (t *tracer) bind(id int) { t.gs[id].Store(curg()) }

// ctx returns the calling goroutine's context, or nil for a goroutine
// the benchmark did not start.
func (t *tracer) ctx() *tctx {
	g := curg()
	for i := range t.gs {
		if t.gs[i].Load() == g {
			return &t.ctxs[i]
		}
	}
	return nil
}

// reset forgets the calls and spans recorded so far (quiescent only).
func (t *tracer) reset() {
	for i := range t.ctxs {
		c := &t.ctxs[i]
		c.spans, c.calls, c.open = c.spans[:0], [numLayers]uint64{}, -1
		c.sampled = c.coord
	}
	t.stray.Store(0)
	t.polls, t.pollDur = 0, 0
}

func (t *tracer) leafStats() alloc.Stats {
	t.leafMu.Lock()
	defer t.leafMu.Unlock()
	var s alloc.Stats
	for _, l := range t.leaves {
		s.Add(l.inner.Stats())
	}
	return s
}

// poll runs one elastic decision step as a root span of the coordinator.
func (t *tracer) poll(mgr *elastic.Manager) {
	c := &t.ctxs[workers]
	c.calls[lElastic]++
	idx := c.push(lElastic, opPoll)
	t0 := nanotime()
	mgr.Poll()
	t.pollDur += nanotime() - t0
	t.polls++
	if idx >= 0 {
		c.pop(idx)
	}
}

// shim is a pass-through layer that times every call into the layer it
// wraps. It forwards every contract the layers probe for, as the
// library's telemetry probe does, and contributes no LayerStats entry
// and no name of its own, so a shimmed stack reads as the same stack.
// The top shim decides which top-level operations are traced: one in
// every t.every per handle, with all the spans below it.
type shim struct {
	inner alloc.Allocator
	sizer alloc.ChunkSizer
	layer uint8
	top   bool
	t     *tracer
}

func newShim(inner alloc.Allocator, layer uint8, t *tracer, top bool) *shim {
	return &shim{inner: inner, sizer: inner.(alloc.ChunkSizer), layer: layer, top: top, t: t}
}

// begin enters a call into the layer. cd is the calling handle's
// countdown for this side of the operation: allocs and frees count down
// separately so a loop alternating the two cannot alias against one.
func (s *shim) begin(op uint8, cd *uint32) (*tctx, int32) {
	c := s.t.ctx()
	if c == nil {
		s.t.stray.Add(1)
		return nil, -1
	}
	c.calls[s.layer]++
	if cd != nil && s.top && !c.sampled {
		if *cd--; *cd == 0 {
			*cd = s.t.every
			c.sampled = true
		}
	}
	if !c.sampled {
		return c, -1
	}
	idx := c.push(s.layer, op)
	if idx < 0 && c.open < 0 && !c.coord {
		c.sampled = false
	}
	return c, idx
}

func end(c *tctx, idx int32) {
	if idx >= 0 {
		c.pop(idx)
	}
}

func (s *shim) Name() string                { return s.inner.Name() }
func (s *shim) Geometry() geometry.Geometry { return s.inner.Geometry() }
func (s *shim) OffsetSpan() uint64          { return alloc.SpanOf(s.inner) }
func (s *shim) Unwrap() alloc.Allocator     { return s.inner }
func (s *shim) ChunkSize(off uint64) uint64 { return s.sizer.ChunkSize(off) }
func (s *shim) Stats() alloc.Stats          { return s.inner.Stats() }

func (s *shim) LayerStats() []alloc.LayerStats { return alloc.StackStats(s.inner) }

func (s *shim) Scrub() {
	if sc, ok := s.inner.(alloc.Scrubber); ok {
		sc.Scrub()
	}
}

// WalkLive forwards the leaf's live-chunk walk (the elastic migration
// step's input); it walks nothing over a layer without one.
func (s *shim) WalkLive(fn func(offset, size uint64) bool) {
	if w, ok := s.inner.(alloc.LiveWalker); ok {
		w.WalkLive(fn)
	}
}

func (s *shim) Alloc(size uint64) (uint64, bool) {
	c, idx := s.begin(opAlloc, nil)
	off, ok := s.inner.Alloc(size)
	end(c, idx)
	return off, ok
}

func (s *shim) Free(off uint64) {
	c, idx := s.begin(opFree, nil)
	s.inner.Free(off)
	end(c, idx)
}

func (s *shim) AllocBatch(size uint64, n int) []uint64 {
	c, idx := s.begin(opAllocBatch, nil)
	out := alloc.AllocBatchOf(s.inner, size, n)
	end(c, idx)
	return out
}

func (s *shim) FreeBatch(offs []uint64) {
	c, idx := s.begin(opFreeBatch, nil)
	alloc.FreeBatchOf(s.inner, offs)
	end(c, idx)
}

func (s *shim) NewHandle() alloc.Handle {
	return &shimHandle{s: s, inner: s.inner.NewHandle(), cd: [2]uint32{s.t.every, s.t.every}}
}

// shimHandle is the per-worker face of a shim.
type shimHandle struct {
	s     *shim
	inner alloc.Handle
	cd    [2]uint32
}

func (h *shimHandle) Alloc(size uint64) (uint64, bool) {
	c, idx := h.s.begin(opAlloc, &h.cd[0])
	off, ok := h.inner.Alloc(size)
	end(c, idx)
	return off, ok
}

func (h *shimHandle) Free(off uint64) {
	c, idx := h.s.begin(opFree, &h.cd[1])
	h.inner.Free(off)
	end(c, idx)
}

func (h *shimHandle) AllocBatch(size uint64, n int) []uint64 {
	c, idx := h.s.begin(opAllocBatch, &h.cd[0])
	out := alloc.HandleAllocBatch(h.inner, size, n)
	end(c, idx)
	return out
}

func (h *shimHandle) FreeBatch(offs []uint64) {
	c, idx := h.s.begin(opFreeBatch, &h.cd[1])
	alloc.HandleFreeBatch(h.inner, offs)
	end(c, idx)
}

func (h *shimHandle) Stats() *alloc.Stats { return h.inner.Stats() }

func (h *shimHandle) Close() { alloc.CloseHandle(h.inner) }

// Flush and CacheStats forward the caching face of a front-end handle.
func (h *shimHandle) Flush() {
	if f, ok := h.inner.(interface{ Flush() }); ok {
		f.Flush()
	}
}

func (h *shimHandle) CacheStats() frontend.CacheStats {
	if c, ok := h.inner.(interface{ CacheStats() frontend.CacheStats }); ok {
		return c.CacheStats()
	}
	return frontend.CacheStats{}
}

// leafVariant is the 4lvl-nb leaf behind a bunch shim. The router builds
// its leaves by registered name, at construction and on every elastic
// grow, so the shim enters below it through the registry.
const leafVariant = "perfbench-4lvl-nb"

// leafTracer is the tracer the next leaves built by name record into.
var leafTracer atomic.Pointer[tracer]

func init() {
	alloc.Register(leafVariant, func(cfg alloc.Config) (alloc.Allocator, error) {
		inner, err := alloc.Build("4lvl-nb", cfg)
		if err != nil {
			return nil, err
		}
		t := leafTracer.Load()
		s := newShim(inner, lBunch, t, false)
		t.leafMu.Lock()
		t.leaves = append(t.leaves, s)
		t.leafMu.Unlock()
		return s, nil
	})
}

// tracedStack is a stack assembled from the layer constructors, in the
// order and with the drain hooks the facade uses, with a shim at every
// boundary.
type tracedStack struct {
	*sut
	t   *tracer
	fe  *frontend.Allocator
	m   *multi.Multi
	mgr *elastic.Manager
	r   *mem.Region
}

func buildTraced(composite bool, t *tracer) (*tracedStack, error) {
	per := alloc.Config{Total: instTotal, MinSize: minSize, MaxSize: maxSize}
	ts := &tracedStack{t: t}
	t.leafMu.Lock()
	t.leaves = nil
	t.leafMu.Unlock()
	if !composite {
		inner, err := alloc.Build("4lvl-nb", per)
		if err != nil {
			return nil, err
		}
		top := newShim(inner, lBunch, t, true)
		t.leaves = append(t.leaves, top)
		ts.sut = shimSut(top, t)
		ts.committed = func() uint64 { return instTotal }
		ts.capacity, ts.maxSpan = instTotal, instTotal
		return ts, nil
	}
	leafTracer.Store(t)
	m, err := multi.New(leafVariant, instances, per, multi.RoundRobin)
	if err != nil {
		return nil, err
	}
	r, err := mem.New(m.InstanceSpan(), m.Slots())
	if err != nil {
		return nil, err
	}
	if err := m.BindMemory(r); err != nil {
		return nil, err
	}
	mgr, err := elastic.New(m, elastic.Config{})
	if err != nil {
		return nil, err
	}
	fe, err := frontend.New(newShim(mgr, lMulti, t, false), 0, frontend.WithDepot(0))
	if err != nil {
		return nil, err
	}
	mgr.OnDrainRange(fe.DrainDepotRange)
	sl, err := slab.New(newShim(fe, lFrontend, t, false), 0)
	if err != nil {
		return nil, err
	}
	mgr.OnDrainRange(sl.DrainRange)
	top := newShim(sl, lSlab, t, true)
	ts.sut = shimSut(top, t)
	ts.fe, ts.m, ts.mgr, ts.r = fe, m, mgr, r
	ts.poll = func() { t.poll(mgr) }
	ts.routerLive = func() uint64 { return routerLive(m) }
	ts.committed = func() uint64 { return r.Stats().CommittedBytes }
	ts.release = r.Release
	ts.capacity = instances * instTotal
	ts.maxSpan = uint64(mgr.Config().MaxInstances) * m.InstanceSpan()
	return ts, nil
}

func shimSut(top *shim, t *tracer) *sut {
	return &sut{
		newHandle: top.NewHandle,
		chunkSize: top.ChunkSize,
		layers:    func() []alloc.LayerStats { return alloc.StackStats(top) },
		scrub:     top.Scrub,
		poll:      func() {},
		release:   func() {},
		bind:      t.bind,
	}
}

// counters are the layer counters the per-layer metrics difference over
// the traced phase.
type counters struct {
	calls [numLayers]uint64
	leaf  alloc.Stats
	depot frontend.DepotStats
	route multi.RouteStats
	life  elastic.Counters
	mem   mem.Stats
}

// snapshot reads the counters (quiescent only).
func (ts *tracedStack) snapshot() counters {
	var c counters
	for i := range ts.t.ctxs {
		for l, n := range ts.t.ctxs[i].calls {
			c.calls[l] += n
		}
	}
	c.leaf = ts.t.leafStats()
	if ts.fe != nil {
		c.depot = ts.fe.Depot().Stats()
		c.route = ts.m.RouteStats()
		c.life = ts.mgr.Counters()
		c.mem = ts.r.Stats()
	}
	return c
}
