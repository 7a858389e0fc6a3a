package main

import (
	nbbs "repro"
	"repro/internal/alloc"
	"repro/internal/multi"
)

// The stack geometry every workload runs: 64 MiB per instance, 8 B to
// 64 KiB requests.
const (
	instTotal = 64 << 20
	minSize   = 8
	maxSize   = 64 << 10
	instances = 4
)

// productionConfig is the production composite: four mapped instances
// behind the router, the elastic manager with its watermark defaults, the
// depot-backed magazines and the slab, telemetry off.
func productionConfig() nbbs.Config {
	return nbbs.Config{
		Total: instTotal, MinSize: minSize, MaxSize: maxSize,
		Backing:  nbbs.BackingConfig{Instances: instances, Mapped: true},
		Elastic:  &nbbs.ElasticConfig{},
		Frontend: nbbs.FrontendConfig{Depot: true, Slab: true},
	}
}

// backendConfig is the paper's back-end: one 4lvl-nb instance.
func backendConfig() nbbs.Config {
	return nbbs.Config{Total: instTotal, MinSize: minSize, MaxSize: maxSize}
}

// sut is a built stack under test, reduced to what the benchmark calls.
type sut struct {
	newHandle func() alloc.Handle
	chunkSize func(off uint64) uint64
	layers    func() []alloc.LayerStats
	scrub     func()
	// poll drives one elastic decision step (a no-op without the manager).
	poll func()
	// routerLive is the bytes the buddy leaves have handed out, as the
	// router tracks them; nil on the bare back-end, where the benchmark sums
	// ChunkSize over the chunks the workers hold instead.
	routerLive func() uint64
	// committed is the mapped bytes currently committed; on the bare
	// back-end nothing is ever returned, so the whole region counts.
	committed func() uint64
	// release unmaps the stack's memory now instead of at collection.
	release func()
	// bind, when set, runs first on every worker goroutine.
	bind func(id int)
	// capacity is the initial capacity in bytes; maxSpan bounds every
	// offset the stack can ever hand out.
	capacity, maxSpan uint64
}

func buildFacade(composite bool) (*sut, error) {
	cfg := backendConfig()
	if composite {
		cfg = productionConfig()
	}
	b, err := nbbs.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &sut{
		newHandle: b.NewHandle,
		chunkSize: b.ChunkSize,
		layers:    b.LayerStats,
		scrub:     func() { b.Scrub() },
		poll:      func() {},
		committed: b.Total,
		release:   func() {},
		capacity:  b.Total(),
		maxSpan:   b.Total(),
	}
	if composite {
		mgr, m, r := b.Elastic(), b.Multi(), b.Memory()
		s.poll = func() { mgr.Poll() }
		s.routerLive = func() uint64 { return routerLive(m) }
		s.committed = func() uint64 { return r.Stats().CommittedBytes }
		s.release = r.Release
		s.maxSpan = uint64(mgr.Config().MaxInstances) * m.InstanceSpan()
	}
	return s, nil
}

func routerLive(m *multi.Multi) uint64 {
	var n int64
	for _, info := range m.InstanceInfos() {
		n += info.LiveBytes
	}
	return uint64(n)
}

func layerNames(ls []alloc.LayerStats) []string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = l.Layer
	}
	return out
}
