package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/verify"
)

// epoch is the length of one time-boxed step; each ends at a quiescent
// point where the coordinator reads the memory gauges.
const epoch = 250 * time.Millisecond

// session is one workload instance driven against one stack by
// long-lived worker goroutines (the traced run identifies callers by
// goroutine, so workers must outlive every phase of the session).
type session struct {
	wl   *workload
	s    *sut
	st   state
	ws   [workers]*worker
	stop atomic.Bool
	wg   sync.WaitGroup

	// Sums over the quiescent points of the last run.
	points                        int
	sumHeld, sumCommitted, sumReq float64
}

func newSession(wl *workload, s *sut, seed uint64, sample bool, chk *verify.Checker) *session {
	ss := &session{wl: wl, s: s, st: wl.make(seed, s)}
	for id := range ss.ws {
		w := newWorker(id, seed, wl.every, sample)
		w.chk, w.chunkSize = chk, s.chunkSize
		w.cmd, w.done = make(chan func(*worker)), make(chan struct{})
		ss.ws[id] = w
		ss.wg.Add(1)
		go func() {
			defer ss.wg.Done()
			w.serve(s.bind)
		}()
	}
	// Each worker opens its own handle, as a program's worker goroutines
	// would, so handles come from the allocation caches of the processors
	// their owners run on rather than from adjacent slots of one.
	ss.each(func(w *worker) { w.h = s.newHandle() })
	return ss
}

func (ss *session) start(f func(*worker)) {
	for _, w := range ss.ws {
		w.cmd <- f
	}
}

func (ss *session) wait() {
	for _, w := range ss.ws {
		<-w.done
	}
}

// each runs f on every worker concurrently and waits for all of them.
func (ss *session) each(f func(*worker)) {
	ss.start(f)
	ss.wait()
}

func (ss *session) prefill() { ss.each(ss.st.prefill) }

// reset zeroes the counters and sample buffers, so a run measures only
// its own calls.
func (ss *session) reset() {
	for _, w := range ss.ws {
		w.allocs, w.frees, w.fails = 0, 0, 0
		w.latA, w.latF = w.latA[:0], w.latF[:0]
	}
	ss.points, ss.sumHeld, ss.sumCommitted, ss.sumReq = 0, 0, 0, 0
}

// run drives the workload for at least d and returns the time it ran,
// less the time the coordinator spent reading gauges at the quiescent
// points. Stepped workloads sequence their own phase steps; the others
// run time-boxed epochs.
func (ss *session) run(d time.Duration) time.Duration {
	step := func(w *worker) { ss.st.step(w, &ss.stop) }
	begin := nanotime()
	var paused int64
	for {
		ss.start(step)
		if !ss.wl.stepped {
			time.Sleep(min(epoch, time.Duration(int64(d)-(nanotime()-begin))))
			ss.stop.Store(true)
		}
		ss.wait()
		ss.stop.Store(false)

		t := nanotime()
		ss.measure()
		paused += nanotime() - t
		ss.st.barrier()
		if nanotime()-begin >= int64(d) {
			break
		}
	}
	return time.Duration(nanotime() - begin - paused)
}

// measure adds one quiescent point: bytes the buddy leaves have handed
// out, bytes committed, and bytes the workers requested and still hold.
func (ss *session) measure() {
	var held uint64
	if ss.s.routerLive != nil {
		held = ss.s.routerLive()
	} else {
		ss.st.live(func(off uint64) { held += ss.s.chunkSize(off) })
	}
	var req int64
	for _, w := range ss.ws {
		req += w.req
	}
	ss.points++
	ss.sumHeld += float64(held)
	ss.sumCommitted += float64(ss.s.committed())
	ss.sumReq += float64(req)
}

// drain frees every chunk the workers hold and closes their handles,
// which flushes whatever the handles parked.
func (ss *session) drain() {
	ss.each(ss.st.drain)
	ss.each(func(w *worker) { alloc.CloseHandle(w.h) })
}

// close stops the worker goroutines and waits until they have exited.
func (ss *session) close() {
	for _, w := range ss.ws {
		close(w.cmd)
	}
	ss.wg.Wait()
}

func (ss *session) totals() (allocs, frees, fails uint64) {
	for _, w := range ss.ws {
		allocs += w.allocs
		frees += w.frees
		fails += w.fails
	}
	return
}

func (ss *session) samples() (a, f []uint32) {
	for _, w := range ss.ws {
		a = append(a, w.latA...)
		f = append(f, w.latF...)
	}
	return a, f
}

// setUp builds the stack and prefills it, and returns the session with
// its workers parked and the time both took.
func setUp(wl *workload, seed uint64, build func(bool) (*sut, error)) (*session, time.Duration, error) {
	runtime.GC()
	t0 := nanotime()
	s, err := build(wl.composite)
	if err != nil {
		return nil, 0, err
	}
	ss := newSession(wl, s, seed, true, nil)
	ss.prefill()
	took := time.Duration(nanotime() - t0)
	ss.reset()
	return ss, took, nil
}
