// Package harness runs the paper's experiments: it sweeps a workload over
// allocator variants, thread counts and request sizes, building a fresh
// single-instance allocator for every cell exactly as the evaluation does,
// and renders the resulting series as text tables, CSV, or gnuplot-ready
// columns.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/slab"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Sweep describes one experiment grid.
type Sweep struct {
	// Workload is a key of workload.Drivers.
	Workload string
	// Allocators are registry labels, in presentation order.
	Allocators []string
	// Threads and Sizes span the grid.
	Threads []int
	Sizes   []uint64
	// Instance is the allocator geometry every cell is built with.
	Instance alloc.Config
	// Scale multiplies the paper's iteration counts (1.0 = paper volume).
	Scale float64
	// Reps repeats each cell; the mean is reported.
	Reps int
	// Seed feeds the workload RNGs.
	Seed int64
	// Procs, when positive, pins GOMAXPROCS for the whole sweep —
	// allocator builds included, so GOMAXPROCS-derived construction
	// parameters (conv-pool widths, ring shards) see the same value the
	// workload runs under — and stamps every cell with it. 0 leaves the
	// runtime untouched and the cells unstamped.
	Procs int
	// Latency wraps every cell's allocator in one top-level telemetry
	// probe and reports sampled single-op Alloc/Free percentiles
	// (p50/p99/p999) per cell — tail latency is the metric a non-blocking
	// allocator exists to win, so the trajectory tracks it alongside
	// throughput. Batch operations are excluded: a whole-batch latency
	// is a different unit and would skew the tail.
	Latency bool
}

// Cell is one measured grid point.
type Cell struct {
	workload.Result
	Summary stats.Summary // seconds across reps
	// Procs is the GOMAXPROCS the cell ran under (0 = whatever the
	// process default was; only -procs sweeps stamp it).
	Procs int
	// SlabCutoff is the size-class slab cutoff of the allocator the cell
	// ran on (0 = no slab layer in the stack). Part of the cell identity:
	// the same label measured with a different class table is a different
	// grid point.
	SlabCutoff uint64
	// LatencySamples and Latency are the sampled single-op Alloc/Free
	// latency percentiles pooled across reps; zero when the sweep ran
	// without Latency (the 0-sentinel convention every optional cell
	// field uses).
	LatencySamples uint64
	Latency        telemetry.Percentiles
}

// Run executes the sweep, streaming per-cell progress lines to progress
// (if non-nil) and returning all cells in sweep order.
func (s Sweep) Run(progress io.Writer) ([]Cell, error) {
	driver, ok := workload.Drivers[s.Workload]
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", s.Workload)
	}
	reps := s.Reps
	if reps <= 0 {
		reps = 1
	}
	if s.Procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(s.Procs))
	}
	var cells []Cell
	for _, size := range s.Sizes {
		for _, threads := range s.Threads {
			for _, name := range s.Allocators {
				samples := make([]float64, 0, reps)
				var last workload.Result
				var slabCutoff uint64
				var totOps, totFails uint64
				var totElapsed time.Duration
				// One latency series per cell: every rep's probe feeds it,
				// so the percentiles pool across reps like ops do.
				var series *telemetry.Series
				if s.Latency {
					series = telemetry.New(telemetry.Config{}).Series(name)
				}
				for r := 0; r < reps; r++ {
					a, err := alloc.Build(name, s.Instance)
					if err != nil {
						return nil, fmt.Errorf("harness: building %s: %w", name, err)
					}
					if series != nil {
						p, err := telemetry.NewProbe(a, series, 0)
						if err != nil {
							return nil, fmt.Errorf("harness: probing %s: %w", name, err)
						}
						a = p
					}
					cfg := workload.Config{
						Threads: threads,
						Size:    size,
						Scale:   s.Scale,
						Seed:    s.Seed + int64(r),
					}
					if err := cfg.Validate(); err != nil {
						return nil, err
					}
					if sl := slab.Find(a); sl != nil {
						slabCutoff = sl.Cutoff()
					}
					last = driver(a, cfg)
					// Key the cell by the requested registry label: for
					// composed stacks the display name differs (e.g.
					// "depot+multi[4x 4lvl-nb]" vs "depot+multi4+4lvl-nb")
					// and tables match on the sweep's labels.
					last.Allocator = name
					samples = append(samples, last.Elapsed.Seconds())
					totOps += last.Ops
					totFails += last.Fails
					totElapsed += last.Elapsed
				}
				// Pool ops and elapsed across reps so Throughput is the
				// pooled mean, not the last rep's sample.
				last.Ops, last.Fails, last.Elapsed = totOps, totFails, totElapsed
				cell := Cell{Result: last, Summary: stats.Summarize(samples), Procs: s.Procs, SlabCutoff: slabCutoff}
				if series != nil {
					merged := series.Merged()
					var snap telemetry.Snapshot
					snap.Add(&merged[telemetry.OpAlloc])
					snap.Add(&merged[telemetry.OpFree])
					cell.LatencySamples = snap.Total()
					cell.Latency = snap.Percentiles()
				}
				cells = append(cells, cell)
				if progress != nil {
					procNote := ""
					if s.Procs > 0 {
						procNote = fmt.Sprintf(" procs=%-3d", s.Procs)
					}
					latNote := ""
					if cell.LatencySamples > 0 {
						latNote = fmt.Sprintf("  p50=%dns p99=%dns p999=%dns",
							cell.Latency.P50, cell.Latency.P99, cell.Latency.P999)
					}
					fmt.Fprintf(progress, "%-20s %-12s bytes=%-7d threads=%-3d%s %10.3fs %12.0f ops/s%s\n",
						s.Workload, name, size, threads, procNote, cell.Summary.Mean, cell.Throughput(), latNote)
				}
			}
		}
	}
	return cells, nil
}

// Metric selects what a table reports.
type Metric int

const (
	// MetricSeconds reports mean execution time, the unit of the paper's
	// Figures 8, 9 and 11.
	MetricSeconds Metric = iota
	// MetricKOps reports throughput in KOps/sec, the unit of Figure 10.
	MetricKOps
	// MetricCycles reports nominal clock cycles (at 2 GHz), Figure 12's unit.
	MetricCycles
)

func (m Metric) value(c Cell) float64 {
	switch m {
	case MetricKOps:
		return c.Throughput() / 1e3
	case MetricCycles:
		return c.Summary.Mean * 2e9 // nominal 2 GHz, as the paper's testbed
	default:
		return c.Summary.Mean
	}
}

func (m Metric) unit() string {
	switch m {
	case MetricKOps:
		return "KOps/s"
	case MetricCycles:
		return "cycles(2GHz)"
	default:
		return "seconds"
	}
}

// Table renders the cells of one size as a threads x allocators table, the
// shape of one panel of a paper figure.
func Table(w io.Writer, title string, cells []Cell, size uint64, allocators []string, m Metric) {
	fmt.Fprintf(w, "# %s (%s)\n", title, m.unit())
	fmt.Fprintf(w, "%-8s", "threads")
	for _, a := range allocators {
		fmt.Fprintf(w, " %14s", a)
	}
	fmt.Fprintln(w)

	byThread := map[int]map[string]Cell{}
	var threads []int
	for _, c := range cells {
		if c.Size != size {
			continue
		}
		row, ok := byThread[c.Threads]
		if !ok {
			row = map[string]Cell{}
			byThread[c.Threads] = row
			threads = append(threads, c.Threads)
		}
		row[c.Allocator] = c
	}
	sort.Ints(threads)
	for _, t := range threads {
		fmt.Fprintf(w, "%-8d", t)
		for _, a := range allocators {
			if c, ok := byThread[t][a]; ok {
				fmt.Fprintf(w, " %14.4g", m.value(c))
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// CSV renders all cells as comma-separated rows with a header. seconds
// is the per-rep mean while ops/fails are pooled across reps; the reps
// column is what relates the two (ops_per_sec is already the pooled
// ops/elapsed ratio).
func CSV(w io.Writer, cells []Cell) {
	fmt.Fprintln(w, "workload,allocator,bytes,threads,reps,seconds,ops,ops_per_sec,fails,p50_ns,p99_ns,p999_ns")
	for _, c := range cells {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%.6f,%d,%.1f,%d,%d,%d,%d\n",
			c.Workload, c.Allocator, c.Size, c.Threads, c.Summary.N, c.Summary.Mean, c.Ops, c.Throughput(), c.Fails,
			c.Latency.P50, c.Latency.P99, c.Latency.P999)
	}
}

// JSONSchema versions the machine-readable report format so trajectory
// tooling can detect incompatible changes. v2 added the optional
// latency percentile fields (lat_samples / p50_ns / p99_ns / p999_ns);
// LoadReport still accepts v1 baselines — the new fields follow the
// 0-sentinel pairing convention, so pre-telemetry cells keep keying and
// diffing against fresh ones.
const JSONSchema = "nbbsbench/v2"

// jsonSchemaV1 is the previous accepted schema (pre-latency reports).
const jsonSchemaV1 = "nbbsbench/v1"

// JSONCell is one grid point of the machine-readable report.
type JSONCell struct {
	Workload   string  `json:"workload"`
	Allocator  string  `json:"allocator"`
	Bytes      uint64  `json:"bytes"`
	Threads    int     `json:"threads"`
	Reps       int     `json:"reps"`
	SecondsAvg float64 `json:"seconds_mean"`
	SecondsMin float64 `json:"seconds_min"`
	SecondsMax float64 `json:"seconds_max"`
	SecondsStd float64 `json:"seconds_std"`
	Ops        uint64  `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	Fails      uint64  `json:"fails"`
	// Procs is the GOMAXPROCS the cell ran under; 0 (omitted) for cells
	// of a plain sweep, which keeps old baselines and fresh standard
	// grids keying identically in trajectory diffs.
	Procs int `json:"procs,omitempty"`
	// ScalingEff is throughput@P / (P * throughput@1) against the same
	// grid point's P=1 cell — 1.0 is perfect scaling. Only stamped on
	// -procs sweep cells whose P=1 companion exists in the same report.
	ScalingEff float64 `json:"scaling_efficiency,omitempty"`
	// SlabCutoff is the slab class cutoff of the stack the cell ran on;
	// 0 (omitted) for slab-less stacks, which keeps pre-slab baselines
	// and fresh slab-less cells keying identically in trajectory diffs —
	// the same sentinel convention as Procs.
	SlabCutoff uint64 `json:"slab_cutoff,omitempty"`
	// LatSamples and the percentile fields are the sampled single-op
	// Alloc/Free latency summary of a -latency sweep; 0 (omitted) when
	// the cell ran without latency probes — not part of the cell key, so
	// v1 baselines and latency-less runs keep pairing, and benchdiff only
	// diffs percentiles when both sides carry them (the Procs/SlabCutoff
	// sentinel convention).
	LatSamples uint64 `json:"lat_samples,omitempty"`
	P50        uint64 `json:"p50_ns,omitempty"`
	P99        uint64 `json:"p99_ns,omitempty"`
	P999       uint64 `json:"p999_ns,omitempty"`
}

// JSONReport is the machine-readable benchmark report emitted by
// `nbbsbench -json` — the format the BENCH_*.json perf-trajectory files
// are committed in, one point per PR.
type JSONReport struct {
	Schema string     `json:"schema"`
	Label  string     `json:"label,omitempty"`
	Cells  []JSONCell `json:"cells"`
}

// Report converts measured cells into a machine-readable report,
// stamping scaling efficiency on -procs sweep cells (see
// JSONCell.ScalingEff).
func Report(label string, cells []Cell) JSONReport {
	rep := JSONReport{Schema: JSONSchema, Label: label}
	base := map[string]float64{} // grid point -> throughput at procs=1
	for _, c := range cells {
		if c.Procs == 1 {
			base[fmt.Sprintf("%s|%s|%d|%d", c.Workload, c.Allocator, c.Size, c.Threads)] = c.Throughput()
		}
	}
	for _, c := range cells {
		jc := JSONCell{
			Workload:   c.Workload,
			Allocator:  c.Allocator,
			Bytes:      c.Size,
			Threads:    c.Threads,
			Reps:       c.Summary.N,
			SecondsAvg: c.Summary.Mean,
			SecondsMin: c.Summary.Min,
			SecondsMax: c.Summary.Max,
			SecondsStd: c.Summary.Std,
			Ops:        c.Ops,
			OpsPerSec:  c.Throughput(),
			Fails:      c.Fails,
			Procs:      c.Procs,
			SlabCutoff: c.SlabCutoff,
			LatSamples: c.LatencySamples,
			P50:        c.Latency.P50,
			P99:        c.Latency.P99,
			P999:       c.Latency.P999,
		}
		if c.Procs > 0 {
			k := fmt.Sprintf("%s|%s|%d|%d", c.Workload, c.Allocator, c.Size, c.Threads)
			if b, ok := base[k]; ok && b > 0 {
				jc.ScalingEff = c.Throughput() / (float64(c.Procs) * b)
			}
		}
		rep.Cells = append(rep.Cells, jc)
	}
	return rep
}

// ScalingTable renders the -procs sweep cells as one row per grid point
// with a "Mops/s (eff)" column per GOMAXPROCS value, where eff is the
// scaling efficiency against the row's procs=1 cell (1.00 = perfect).
// Cells without a Procs stamp are ignored.
func ScalingTable(w io.Writer, cells []Cell) {
	var procs []int
	seenP := map[int]bool{}
	type key struct {
		workload, allocator string
		size                uint64
		threads             int
	}
	rows := map[key]map[int]Cell{}
	var order []key
	for _, c := range cells {
		if c.Procs <= 0 {
			continue
		}
		if !seenP[c.Procs] {
			seenP[c.Procs] = true
			procs = append(procs, c.Procs)
		}
		k := key{c.Workload, c.Allocator, c.Size, c.Threads}
		if rows[k] == nil {
			rows[k] = map[int]Cell{}
			order = append(order, k)
		}
		rows[k][c.Procs] = c
	}
	if len(order) == 0 {
		return
	}
	sort.Ints(procs)
	fmt.Fprintf(w, "# scaling efficiency: Mops/s (throughput@P / P*throughput@1)\n")
	fmt.Fprintf(w, "%-14s %-28s %7s %8s", "workload", "allocator", "bytes", "threads")
	for _, p := range procs {
		fmt.Fprintf(w, " %18s", fmt.Sprintf("procs=%d", p))
	}
	fmt.Fprintln(w)
	for _, k := range order {
		fmt.Fprintf(w, "%-14s %-28s %7d %8d", k.workload, k.allocator, k.size, k.threads)
		baseCell, haveBase := rows[k][1]
		for _, p := range procs {
			c, ok := rows[k][p]
			if !ok {
				fmt.Fprintf(w, " %18s", "-")
				continue
			}
			if haveBase && baseCell.Throughput() > 0 {
				eff := c.Throughput() / (float64(p) * baseCell.Throughput())
				fmt.Fprintf(w, " %18s", fmt.Sprintf("%.2f (%.2f)", c.Throughput()/1e6, eff))
			} else {
				fmt.Fprintf(w, " %18s", fmt.Sprintf("%.2f", c.Throughput()/1e6))
			}
		}
		fmt.Fprintln(w)
	}
}

// JSON renders cells as an indented machine-readable report.
func JSON(w io.Writer, label string, cells []Cell) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Report(label, cells))
}

// GnuplotSeries renders one column block per allocator: "threads value"
// pairs separated by blank lines, directly plottable with gnuplot's index.
func GnuplotSeries(w io.Writer, cells []Cell, size uint64, allocators []string, m Metric) {
	for _, a := range allocators {
		fmt.Fprintf(w, "# series %s bytes=%d (%s)\n", a, size, m.unit())
		for _, c := range cells {
			if c.Allocator == a && c.Size == size {
				fmt.Fprintf(w, "%d %g\n", c.Threads, m.value(c))
			}
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w)
	}
}

// AllocatorsUserSpace is the comparison set of Figures 8-11, in the
// paper's legend order.
var AllocatorsUserSpace = []string{"4lvl-nb", "1lvl-nb", "4lvl-sl", "1lvl-sl", "buddy-sl"}

// AllocatorsKernelStyle is Figure 12's comparison set.
var AllocatorsKernelStyle = []string{"4lvl-nb", "1lvl-nb", "buddy-sl", "linux-buddy"}

// ParseSizes parses a comma-separated size list ("8,128,1024").
func ParseSizes(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		var v uint64
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &v); err != nil {
			return nil, fmt.Errorf("harness: bad size %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseThreads parses a comma-separated thread list ("4,8,16,24,32").
func ParseThreads(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &v); err != nil {
			return nil, fmt.Errorf("harness: bad thread count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
