package main

import (
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/verify"
)

// verifyTime is the length of the untimed checked pass each run ends with.
const verifyTime = 300 * time.Millisecond

// gate collects correctness violations; every one fails the run.
type gate struct {
	checks   int
	problems []string
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.checks++
	if !ok {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// balanced checks that every layer of a drained, scrubbed stack served
// as many frees as allocations.
func (g *gate) balanced(when string, ls []alloc.LayerStats) {
	for _, l := range ls {
		g.check(l.Stats.Allocs == l.Stats.Frees, "%s: layer %s: %d allocs != %d frees",
			when, l.Layer, l.Stats.Allocs, l.Stats.Frees)
	}
}

// retire drains a session that has run, stops its workers, scrubs the
// stack and checks the layers balance.
func (g *gate) retire(when string, ss *session) {
	ss.drain()
	ss.close()
	var req int64
	for _, w := range ss.ws {
		req += w.req
	}
	g.check(req == 0, "%s: %d requested bytes unaccounted after drain", when, req)
	ss.s.scrub()
	g.balanced(when, ss.s.layers())
}

// verifyPass drives the workload briefly with every delivered window
// claimed in an internal/verify checker: S1, no chunk delivered twice
// while live, and S2, every chunk released exactly once, leaving the
// checker empty. It returns the allocations it attempted and those that
// failed.
func (g *gate) verifyPass(wl *workload, s *sut, seed uint64) (attempted, failed uint64) {
	chk := verify.NewChecker(s.maxSpan, minSize)
	vs := newSession(wl, s, seed, false, chk)
	vs.prefill()
	vs.run(verifyTime)
	allocs, _, fails := vs.totals()
	g.retire("verify pass", vs)
	err := chk.Quiesced()
	g.check(err == nil, "verify pass: %v", err)
	return allocs + fails, fails
}
