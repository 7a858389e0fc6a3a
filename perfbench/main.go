// Command perfbench is the repository's benchmark. It drives the
// allocator through its public facade (nbbs.New) under four named
// closed-loop workloads, two workers each, and prints every end-to-end
// metric by name with its unit and sample count; a traced run
// (-trace 1) builds the same stack from the layer constructors with span
// shims at every boundary and prints per-layer metrics instead. Every
// run ends with a correctness gate, and a violation exits nonzero.
//
//	go run . -workload small-local -seed 1 -seconds 10 -trace 0
//
// The stacks: the production composite (64 MiB x 4 mapped instances,
// elastic manager with watermark defaults, depot magazines, slab;
// telemetry off) and, for tree-occupancy, the paper's back-end alone
// (one 4lvl-nb instance).
//
// Which end-to-end metric each layer metric should move:
//
//	layer metrics                          end-to-end metrics                         workload        elsewhere
//	slab.*_self_ns, slab.pass_ratio        ops_per_s, *_p50_ns, held_per_live         small-local     none on tree-occupancy
//	frontend.*_self_ns, depot_hit_ratio    ops_per_s, free_p99_ns                     server-handoff
//	multi.*_self_ns (live-counter tax)     ops_per_s                                  sawtooth,       none on small-local
//	                                                                                  server-handoff
//	elastic.*, mem.*                       ops_per_s, alloc_p99_ns, committed_per_live sawtooth
//	bunch.*                                ops_per_s, alloc_p99_ns, fail_ratio        tree-occupancy
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
		spans   = flag.String("spans", ".bench_build/perfbench-spans", "directory the traced run writes its spans to")
		commit  = flag.String("commit", "unknown", "source revision, recorded in the output")
	)
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q (%v), seconds %v, trace %d\n", *name, err, *seconds, *trace)
		return 2
	}
	fmt.Printf("fingerprint: nproc=%d gomaxprocs=%d cpu=%q go=%s kernel=%s commit=%s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), kernel(), *commit, *seed)
	fmt.Printf("workload: %s (%s), %d closed-loop workers, %.3gs measured, trace=%d\n",
		wl.name, stackKind(wl), workers, *seconds, *trace)
	d := time.Duration(*seconds * float64(time.Second))
	g := &gate{}
	var rep *report
	var attempted, failed uint64
	if *trace == 0 {
		rep, attempted, failed, err = endToEnd(wl, *seed, d, g)
	} else {
		rep, attempted, failed, err = perLayer(wl, *seed, d, g, *spans)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.print()
	for _, p := range g.problems {
		fmt.Printf("gate: FAIL %s\n", p)
	}
	fmt.Printf("gate: %d checks, %d violations\n", g.checks, len(g.problems))
	out := output{
		Correct:   len(g.problems) == 0,
		Attempted: attempted,
		Failed:    failed + uint64(len(g.problems)),
		Metrics:   rep.result(),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func stackKind(wl *workload) string {
	if wl.composite {
		return "production composite"
	}
	return "paper back-end"
}

// roundSeed derives the inputs of round r from the run's seed.
func roundSeed(seed uint64, r int) uint64 { return splitmix(seed ^ uint64(r)<<32) }

// endToEnd measures the untraced facade stack, round by round, and ends
// with the correctness gate on every round and a verify pass on the last.
func endToEnd(wl *workload, seed uint64, d time.Duration, g *gate) (*report, uint64, uint64, error) {
	var ops, aP50, aP99, fP50, fP99, setups []float64
	var allocs, frees, fails, nA, nF, attempted, failed uint64
	var points int
	var held, committed, req float64
	for r := 0; r < wl.rounds; r++ {
		ss, took, err := setUp(wl, roundSeed(seed, r), buildFacade)
		if err != nil {
			return nil, 0, 0, err
		}
		runtime.GC()
		elapsed := ss.run(d / time.Duration(wl.rounds))
		a, f, fl := ss.totals()
		la, lf := ss.samples()
		slices.Sort(la)
		slices.Sort(lf)
		setups = append(setups, took.Seconds())
		ops = append(ops, float64(a+f)/elapsed.Seconds())
		aP50, aP99 = append(aP50, quantile(la, 0.50)), append(aP99, quantile(la, 0.99))
		fP50, fP99 = append(fP50, quantile(lf, 0.50)), append(fP99, quantile(lf, 0.99))
		allocs, frees, fails = allocs+a, frees+f, fails+fl
		nA, nF = nA+uint64(len(la)), nF+uint64(len(lf))
		points += ss.points
		held, committed, req = held+ss.sumHeld, committed+ss.sumCommitted, req+ss.sumReq
		g.retire(fmt.Sprintf("round %d", r), ss)
		if r == wl.rounds-1 {
			va, vf := g.verifyPass(wl, ss.s, roundSeed(seed, r))
			attempted, failed = attempted+va, failed+vf
		}
		ss.s.release()
	}
	rep := newReport()
	n := wl.rounds
	rep.add("ops_per_s", median(ops), "1/s", "median of %d rounds; %d allocs + %d frees in all", n, allocs, frees)
	rep.add("alloc_p50_ns", median(aP50), "ns", "median of %d rounds; samples=%d (1 in %d calls)", n, nA, wl.every)
	rep.add("alloc_p99_ns", median(aP99), "ns", "median of %d rounds; samples=%d, %d beyond p99", n, nA, nA/100)
	rep.add("free_p50_ns", median(fP50), "ns", "median of %d rounds; samples=%d (1 in %d calls)", n, nF, wl.every)
	rep.add("free_p99_ns", median(fP99), "ns", "median of %d rounds; samples=%d, %d beyond p99", n, nF, nF/100)
	rep.add("fail_ratio", ratio(float64(fails), float64(allocs+fails)), "ratio",
		"%d failed of %d attempted allocs", fails, allocs+fails)
	rep.printOnly("fail_ratio")
	rep.add("held_per_live", ratio(held, req), "ratio", "over %d quiescent points", points)
	rep.add("committed_per_live", ratio(committed, req), "ratio", "over %d quiescent points", points)
	rep.add("setup_s", median(setups), "s", "median of %d builds+prefills", n)
	return rep, attempted + allocs + fails, failed + fails, nil
}

// perLayer alternates rounds of the facade stack untraced and of the
// constructor-built stack traced, checks they are the same stack, and
// reports the per-layer metrics and the tracing overhead. End-to-end
// numbers never come from here.
func perLayer(wl *workload, seed uint64, d time.Duration, g *gate, spanDir string) (*report, uint64, uint64, error) {
	var untracedRates, tracedRates []float64
	var attempted, failed uint64
	var facadeLayers []string
	var acc layerAcc
	var spans [][]span
	t := newTracer(wl.every)
	for r := 0; r < wl.rounds; r++ {
		var ts *tracedStack
		traced := r%2 == 1
		build := buildFacade
		if traced {
			build = func(composite bool) (*sut, error) {
				var err error
				ts, err = buildTraced(composite, t)
				if err != nil {
					return nil, err
				}
				return ts.sut, nil
			}
		}
		ss, _, err := setUp(wl, roundSeed(seed, r), build)
		if err != nil {
			return nil, 0, 0, err
		}
		layers := layerNames(ss.s.layers())
		var before counters
		if !traced {
			facadeLayers = layers
		} else {
			g.check(slices.Equal(facadeLayers, layers), "traced stack layers %v != facade layers %v",
				layers, facadeLayers)
			t.reset()
			before = ts.snapshot()
		}
		runtime.GC()
		elapsed := ss.run(d / time.Duration(wl.rounds))
		a, f, fails := ss.totals()
		attempted, failed = attempted+a+fails, failed+fails
		rate := float64(a+f) / elapsed.Seconds()
		if !traced {
			untracedRates = append(untracedRates, rate)
		} else {
			tracedRates = append(tracedRates, rate)
			spans = make([][]span, len(t.ctxs))
			for i := range t.ctxs {
				// Capped copies: the drain below appends the coordinator's.
				spans[i] = slices.Clip(t.ctxs[i].spans)
			}
			acc.add(before, ts.snapshot(), spans[:workers], t)
			if n := t.stray.Load(); n > 0 {
				g.check(false, "%d traced calls came from goroutines the benchmark did not start", n)
			}
		}
		g.retire(fmt.Sprintf("round %d", r), ss)
		ss.s.release()
	}
	rep := acc.report()
	untraced, traced := median(untracedRates), median(tracedRates)
	rep.add("trace.untraced_ops_per_s", untraced, "1/s", "median of %d facade rounds", len(untracedRates))
	rep.add("trace.traced_ops_per_s", traced, "1/s", "median of %d shimmed rounds", len(tracedRates))
	rep.add("trace.overhead_ratio", ratio(untraced, traced), "ratio", "untraced / traced ops_per_s")
	if err := writeSpans(filepath.Join(spanDir, wl.name+".tsv"), spans); err != nil {
		return nil, 0, 0, err
	}
	return rep, attempted, failed, nil
}

// layerAcc sums the traced rounds' layer counters and span self times.
type layerAcc struct {
	selfSum                                    [numLayers][2]float64
	selfN                                      [numLayers][2]uint64
	calls                                      [numLayers]uint64
	pops, misses, fallbacks, routed            uint64
	rmw, leafOps, casFail, retries, leafAllocs uint64
	grows, retires, commits, decommits, polls  uint64
	pollDur                                    int64
}

// add folds in one traced round: the counters before and after its
// timed phase, and the spans of its sampled traces. A span's self time
// is its duration less the time its child spans cover.
func (acc *layerAcc) add(before, after counters, workerSpans [][]span, t *tracer) {
	for _, spans := range workerSpans {
		child := make([]int64, len(spans))
		for _, sp := range spans {
			if sp.parent >= 0 {
				child[sp.parent] += sp.dur
			}
		}
		for i, sp := range spans {
			side := sp.op & 1
			acc.selfSum[sp.layer][side] += float64(sp.dur - child[i])
			acc.selfN[sp.layer][side]++
		}
	}
	for l := range acc.calls {
		acc.calls[l] += after.calls[l] - before.calls[l]
	}
	acc.pops += after.depot.FullPops - before.depot.FullPops
	acc.misses += after.depot.PopMisses - before.depot.PopMisses
	acc.fallbacks += after.route.Fallbacks - before.route.Fallbacks
	acc.routed += after.route.Routed - before.route.Routed
	acc.rmw += after.leaf.RMW - before.leaf.RMW
	acc.leafOps += after.leaf.OpsTotal() - before.leaf.OpsTotal()
	acc.casFail += after.leaf.CASFail - before.leaf.CASFail
	acc.retries += after.leaf.Retries - before.leaf.Retries
	acc.leafAllocs += after.leaf.Allocs - before.leaf.Allocs
	acc.grows += after.life.Grows - before.life.Grows
	acc.retires += after.life.Retires - before.life.Retires
	acc.commits += after.mem.Commits - before.mem.Commits
	acc.decommits += after.mem.Decommits - before.mem.Decommits
	acc.polls += t.polls
	acc.pollDur += t.pollDur
}

func (acc *layerAcc) report() *report {
	f := func(n uint64) float64 { return float64(n) }
	rep := newReport()
	for l := lSlab; l <= lBunch; l++ {
		n := layerName[l]
		rep.add(n+".calls", f(acc.calls[l]), "count", "all calls into the layer")
		rep.add(n+".alloc_self_ns", ratio(acc.selfSum[l][0], f(acc.selfN[l][0])), "ns", "spans=%d", acc.selfN[l][0])
		rep.add(n+".free_self_ns", ratio(acc.selfSum[l][1], f(acc.selfN[l][1])), "ns", "spans=%d", acc.selfN[l][1])
		if l == lSlab || l == lFrontend {
			rep.add(n+".pass_ratio", ratio(f(acc.calls[l+1]), f(acc.calls[l])), "ratio", "calls forwarded below / calls")
		}
	}
	rep.add("frontend.depot_hit_ratio", ratio(f(acc.pops), f(acc.pops+acc.misses)), "ratio",
		"%d full-magazine pops, %d misses", acc.pops, acc.misses)
	rep.add("multi.fallback_ratio", ratio(f(acc.fallbacks), f(acc.fallbacks+acc.routed)), "ratio",
		"%d fallbacks of %d router allocs", acc.fallbacks, acc.fallbacks+acc.routed)
	rep.add("bunch.rmw_per_op", ratio(f(acc.rmw), f(acc.leafOps)), "count", "%d atomic RMW over %d leaf ops", acc.rmw, acc.leafOps)
	rep.add("bunch.casfail_ratio", ratio(f(acc.casFail), f(acc.rmw)), "ratio", "failed CAS / RMW")
	rep.add("bunch.retries_per_alloc", ratio(f(acc.retries), f(acc.leafAllocs)), "count", "TryAlloc aborts per leaf alloc")
	rep.add("elastic.poll_ns", ratio(float64(acc.pollDur), f(acc.polls)), "ns", "polls=%d", acc.polls)
	rep.add("elastic.grows", f(acc.grows), "count", "instances published")
	rep.add("elastic.retires", f(acc.retires), "count", "instances retired")
	rep.add("mem.commits", f(acc.commits), "count", "windows committed")
	rep.add("mem.decommits", f(acc.decommits), "count", "windows decommitted")
	return rep
}

// writeSpans writes every recorded span, one per line: context, trace,
// span index, parent index, layer, operation, start and duration in ns.
func writeSpans(path string, spans [][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "ctx\ttrace\tspan\tparent\tlayer\top\tstart_ns\tdur_ns")
	for c, list := range spans {
		for i, sp := range list {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\n", c, sp.trace, i, sp.parent,
				layerName[sp.layer], opName[sp.op], sp.start, sp.dur)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
