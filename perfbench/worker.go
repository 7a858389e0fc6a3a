package main

import (
	"repro/internal/alloc"
	"repro/internal/verify"
)

// noOff marks an empty chunk slot; no stack hands out this offset.
const noOff = ^uint64(0)

// latCap bounds the latency samples one worker keeps per operation kind.
// The buffers are allocated before the timed phase so the benchmark itself
// never allocates while it is being measured; a run that fills one stops
// sampling that kind and reports the smaller count.
const latCap = 1 << 20

// chunk is one allocation a worker holds: its offset (noOff when the slot
// is empty) and the requested size.
type chunk struct {
	off, size uint64
}

// worker is one closed-loop client: it owns a handle and issues its next
// call only when the previous one returned. Its counters are written by
// its own goroutine only and read by the coordinator while it is parked.
//
// The padding at both ends keeps one worker's hot fields off the cache
// lines of whatever the heap places beside it, the other worker above
// all: without it, whether the two share a line depends on where a run's
// allocations happen to fall, and throughput swings by half between
// otherwise identical runs.
type worker struct {
	_   [64]byte
	id  int
	h   alloc.Handle
	rng uint64

	// every is the fixed sampling interval: one call in every is timed,
	// allocs and frees on separate countdowns so that a loop alternating
	// the two cannot alias against a shared one.
	every      uint32
	cdA, cdF   uint32
	latA, latF []uint32

	allocs, frees, fails uint64
	// req is the requested bytes this worker allocated minus those it
	// freed; it goes negative when the worker frees others' chunks, and
	// the sum over workers is the requested live bytes.
	req int64

	// chk, when set, claims every delivered window (the verify pass).
	chk       *verify.Checker
	chunkSize func(uint64) uint64

	cmd  chan func(*worker)
	done chan struct{}
	_    [64]byte
}

func newWorker(id int, seed uint64, every uint32, sample bool) *worker {
	w := &worker{id: id, rng: splitmix(seed + uint64(id)*0x9e3779b97f4a7c15), every: every,
		cdA: every, cdF: every}
	if w.rng == 0 {
		w.rng = 1
	}
	if sample {
		w.latA = make([]uint32, 0, latCap)
		w.latF = make([]uint32, 0, latCap)
	}
	return w
}

// next is xorshift64: cheap enough not to show in a 20 ns operation.
func (w *worker) next() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// pick returns a uniform index in [0, n).
func (w *worker) pick(n int) int { return int((w.next() >> 32) * uint64(n) >> 32) }

// alloc calls the handle, timing the call when its countdown expires.
func (w *worker) alloc(size uint64) (uint64, bool) {
	var off uint64
	var ok bool
	if w.cdA--; w.cdA == 0 {
		w.cdA = w.every
		t0 := nanotime()
		off, ok = w.h.Alloc(size)
		record(&w.latA, nanotime()-t0)
	} else {
		off, ok = w.h.Alloc(size)
	}
	if !ok {
		w.fails++
		return 0, false
	}
	w.allocs++
	w.req += int64(size)
	if w.chk != nil {
		w.chk.Claim(off, w.chunkSize(off))
	}
	return off, true
}

// free releases a chunk of the given requested size. Under the verify
// pass the claim is dropped before the call, since the chunk may be
// handed to the other worker the moment the free completes.
func (w *worker) free(off, size uint64) {
	if w.chk != nil {
		w.chk.Release(off, w.chunkSize(off))
	}
	if w.cdF--; w.cdF == 0 {
		w.cdF = w.every
		t0 := nanotime()
		w.h.Free(off)
		record(&w.latF, nanotime()-t0)
	} else {
		w.h.Free(off)
	}
	w.frees++
	w.req -= int64(size)
}

func record(buf *[]uint32, ns int64) {
	if b := *buf; len(b) < cap(b) {
		*buf = append(b, uint32(min(ns, 1<<32-1)))
	}
}

// serve runs the commands the coordinator sends until it closes cmd.
func (w *worker) serve(bind func(id int)) {
	if bind != nil {
		bind(w.id)
	}
	for f := range w.cmd {
		f(w)
		w.done <- struct{}{}
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
