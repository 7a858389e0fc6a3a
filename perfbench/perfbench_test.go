package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryWorkloadReportsEveryMetric runs each workload on a tiny budget,
// end to end and traced, and checks that the gate passes and that the
// result line carries exactly the metrics BENCHMARK.json names.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		wl, err := findWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(wl.name, func(t *testing.T) {
			g := &gate{}
			rep, attempted, failed, err := endToEnd(wl, 7, 100*time.Millisecond, g)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "end-to-end", rep, spec.EndToEnd)
			g2 := &gate{}
			lrep, _, _, err := perLayer(wl, 7, 100*time.Millisecond, g2, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "per-layer", lrep, spec.PerLayer)
			if len(g.problems)+len(g2.problems) > 0 {
				t.Fatalf("gate: %v %v", g.problems, g2.problems)
			}
			if attempted == 0 || failed != 0 {
				t.Fatalf("attempted %d, failed %d", attempted, failed)
			}
		})
	}
}

func checkMetrics(t *testing.T, kind string, rep *report, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	got := rep.result()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", kind, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", kind, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", kind, m.Name, g.Unit, m.Unit)
		}
	}
}

// dupHandle hands out an offset it already delivered, still live, on
// every 100th allocation, and swallows the extra free that duplicate
// earns, so the allocator below stays consistent while the caller sees
// the same chunk twice.
type dupHandle struct {
	alloc.Handle
	n    int
	live map[uint64]int
	last uint64
}

func (h *dupHandle) Alloc(size uint64) (uint64, bool) {
	if h.n++; h.n%100 == 0 && h.live[h.last] > 0 {
		h.live[h.last]++
		return h.last, true
	}
	off, ok := h.Handle.Alloc(size)
	if ok {
		h.live[off]++
		h.last = off
	}
	return off, ok
}

func (h *dupHandle) Free(off uint64) {
	if h.live[off]--; h.live[off] == 0 {
		h.Handle.Free(off)
	}
}

func TestGateCatchesDuplicateOffset(t *testing.T) {
	wl, err := findWorkload("small-local")
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildFacade(false)
	if err != nil {
		t.Fatal(err)
	}
	inner := s.newHandle
	s.newHandle = func() alloc.Handle { return &dupHandle{Handle: inner(), live: map[uint64]int{}} }
	g := &gate{}
	g.verifyPass(wl, s, 1)
	if len(g.problems) == 0 || !strings.Contains(strings.Join(g.problems, "\n"), "S1") {
		t.Fatalf("gate did not report the duplicated offset: %v", g.problems)
	}
}
