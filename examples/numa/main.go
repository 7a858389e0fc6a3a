// NUMA: node-local memory placement over the multi-instance router — the
// deployment the paper's related-work discussion motivates, made real.
//
// The stack is a mapped multi-instance router. Every mapped region
// places its windows: window k is committed onto the NUMA node of cpu
// (k mod NumCPU) — mbind preferred policy before the first touch — so a
// worker pinned to instance k on that cpu walks a node-local tree and
// touches node-local payload. The demo pins worker i to instance
// (i mod instances) with Multi().NewHandleOn, drives a mixed local
// churn, then:
//
//   - prints the window -> NUMA-node map;
//   - asserts the placement: for every committed window, the node the
//     kernel reports for its first page (get_mempolicy) must equal the
//     node the region assigned (NodeMap). On single-node machines and
//     platforms without the syscalls the assertion passes trivially —
//     placement is bookkeeping-only there, and the demo says so.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	nbbs "repro"
)

func main() {
	var (
		instances = flag.Int("instances", 4, "back-end instances (workers are pinned round-robin)")
		workers   = flag.Int("workers", 8, "worker goroutines")
		ops       = flag.Int("ops", 200000, "alloc/free pairs per worker")
		variant   = flag.String("variant", nbbs.Variant4Lvl, "allocator variant per instance")
	)
	flag.Parse()

	b, err := nbbs.New(nbbs.Config{Total: 32 << 20, MinSize: 64, MaxSize: 64 << 10},
		nbbs.WithVariant(*variant),
		nbbs.WithInstances(*instances),
		nbbs.WithMappedMemory(),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d workers pinned over %d instances\n", b.Name(), *workers, b.Instances())
	if nbbs.NUMABacking() {
		fmt.Printf("NUMA: %d online nodes, mbind placement active\n", len(nbbs.NUMANodes()))
	} else {
		fmt.Printf("NUMA: single node or no syscalls — placement is bookkeeping only\n")
	}

	// Node-local churn: worker w allocates and frees on its own instance,
	// whose window sits on the node of the cpu it is expected to run on.
	sizes := []uint64{64, 256, 1024, 8 << 10}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := b.Multi().NewHandleOn(w % b.Instances())
			rng := rand.New(rand.NewSource(int64(w)))
			var live []uint64
			for i := 0; i < *ops; i++ {
				if off, ok := h.Alloc(sizes[rng.Intn(len(sizes))]); ok {
					live = append(live, off)
				}
				if len(live) > 32 {
					h.Free(live[0])
					live = live[1:]
				}
			}
			for _, off := range live {
				h.Free(off)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	s := b.Stats()
	fmt.Printf("\nlocal churn: %d ops in %v (%.2f Mops/s), %d fallbacks off the pinned instance\n",
		s.OpsTotal(), elapsed.Round(time.Millisecond),
		float64(s.OpsTotal())/elapsed.Seconds()/1e6, b.Multi().RouteStats().Fallbacks)

	b.Scrub()

	// Placement report and assertion: the kernel's answer for each
	// committed window must match the node the region assigned.
	r := b.Memory()
	nodes := r.NodeMap()
	fmt.Printf("\nwindow -> NUMA node map:\n")
	violations := 0
	for k, assigned := range nodes {
		if !r.Committed(k) {
			fmt.Printf("  window %-3d decommitted (assigned node %d)\n", k, assigned)
			continue
		}
		line := fmt.Sprintf("  window %-3d assigned node %-3d", k, assigned)
		if got, ok := nbbs.NodeOfWindow(r, k); ok {
			line += fmt.Sprintf(" kernel reports %-3d", got)
			if nbbs.NUMABacking() && got != assigned {
				line += "  MISMATCH"
				violations++
			}
		} else {
			line += " kernel placement unavailable"
		}
		fmt.Println(line)
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "numa: %d window(s) placed off their assigned node\n", violations)
		os.Exit(1)
	}
	fmt.Printf("placement verified: every committed window is on its assigned node\n")

	for _, layer := range b.LayerStats() {
		fmt.Printf("  layer %-28s allocs=%d frees=%d fails=%d\n",
			layer.Layer, layer.Stats.Allocs, layer.Stats.Frees, layer.Stats.AllocFails)
	}
}
