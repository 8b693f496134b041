package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// Load shape, all workloads: a closed loop. A browser user, a REST
// caller and a mediator client each wait for their reply before they
// send again, so the harness runs `clients` goroutines that each issue
// one op at a time; every server is in this process on loopback.

const (
	nWindows    = 36 // measured windows per untraced run, a reference burst before and after each
	refShare    = 5  // a burst takes 1/refShare of a window's slot of the run
	nSetups     = 3  // set-ups per untraced run; setup_s is their median
	replayEvery = 8  // in a traced window, every n-th op of a client replays its layers
)

// numClients is min(nproc, 4).
func numClients() int {
	return min(runtime.NumCPU(), 4)
}

// env is what a workload's setup gets.
type env struct {
	seed    int64
	clients []*client
	dir     string // scratch directory of this run, under out/
}

func (e *env) tracers() []*tracer {
	ts := make([]*tracer, len(e.clients))
	for i, c := range e.clients {
		ts[i] = c.tr
	}
	return ts
}

// client is one closed-loop caller.
type client struct {
	idx int
	rng *rand.Rand
	tr  *tracer
	ctx context.Context // carries tr to the HTTP wrappers

	ops     int  // ops started
	traced  bool // the current window records spans
	replay  bool // the current op replays its layers (traced windows only)
	replays int  // ops that did
	samples []sample

	deck  []uint8 // the client's shuffled op classes, see mix
	dealt int
}

type sample struct {
	ns     int64
	class  uint8
	failed bool
}

// state is a set-up workload.
type state interface {
	// op runs the client's next operation and checks its output against
	// the generator's answer. It returns the op's class (an index into
	// the workload's classes); a non-nil error is a failed op.
	op(c *client) (class int, err error)
	// sources names the live objects whose counters the layers read.
	sources() sources
	// close verifies whatever can only be checked after the run (it
	// returns how many documents or pages failed that check) and
	// releases servers, stores and sessions.
	close() (failed int, err error)
}

type workload struct {
	name    string
	why     string
	tailPct float64 // the percentile latency_tail_ms reports on this workload
	classes []string
	warmOps int // ops per client run before the first window
	setup   func(e *env) (state, error)
}

func newEnv(seed int64, outDir string) (*env, error) {
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, dir: dir}
	for i := 0; i < numClients(); i++ {
		tr := newTracer(i)
		e.clients = append(e.clients, &client{
			idx: i,
			rng: clientRNG(seed, i),
			tr:  tr,
			ctx: withTracer(context.Background(), tr),
		})
	}
	return e, nil
}

// setUp builds a workload's state and warms it: caches fill and lazy
// indexes build before the first window. The time it takes is setup_s.
func setUp(w *workload, seed int64, outDir string) (*env, state, time.Duration, error) {
	runtime.GC() // every set-up starts from a collected heap, whatever ran before it
	t0 := time.Now()
	e, err := newEnv(seed, outDir)
	if err != nil {
		return nil, nil, 0, err
	}
	st, err := w.setup(e)
	if err != nil {
		os.RemoveAll(e.dir)
		return nil, nil, 0, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	win := runOps(st, e.clients, func(c *client) bool { return c.ops < w.warmOps })
	if win.failed > 0 {
		tearDown(e, st)
		return nil, nil, 0, fmt.Errorf("%s: warm-up: %d of %d ops failed: %v", w.name, win.failed, win.ops, win.firstErr)
	}
	return e, st, time.Since(t0), nil
}

func tearDown(e *env, st state) (int, error) {
	failed, err := st.close()
	os.RemoveAll(e.dir)
	return failed, err
}

// procSnap is the process-level state the end-to-end metrics difference.
type procSnap struct {
	at         time.Time
	cpu        time.Duration // user+sys
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	pauseNs    uint64
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSnap{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
	}
}

// window is one measured interval.
type window struct {
	speed       float64 // the machine's speed over the window, see refSpeed; set by runEndToEnd
	ops, failed int
	firstErr    error
	wall        time.Duration
	cpu         time.Duration
	mallocs     uint64
	allocBytes  uint64
	numGC       uint32
	pauseNs     uint64
	lat         []int64   // sorted op latencies, ns
	byClass     [][]int64 // sorted, per class
}

// runOps runs every client's loop while more(c) holds and collects the
// ops as one window.
func runOps(st state, clients []*client, more func(c *client) bool) window {
	errs := make([]error, len(clients))
	before := snapProc()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			c.samples = c.samples[:0]
			for more(c) {
				c.ops++
				if c.replay = c.traced && c.ops%replayEvery == 0; c.replay {
					c.replays++
				}
				c.tr.nextOp()
				id := c.tr.begin("op")
				t0 := time.Now()
				class, err := st.op(c)
				d := time.Since(t0)
				c.tr.end(id)
				c.samples = append(c.samples, sample{ns: int64(d), class: uint8(class), failed: err != nil})
				if err != nil && errs[i] == nil {
					errs[i] = err
				}
			}
		}(i, c)
	}
	wg.Wait()
	after := snapProc()

	w := window{
		wall:       after.at.Sub(before.at),
		cpu:        after.cpu - before.cpu,
		mallocs:    after.mallocs - before.mallocs,
		allocBytes: after.allocBytes - before.allocBytes,
		numGC:      after.numGC - before.numGC,
		pauseNs:    after.pauseNs - before.pauseNs,
	}
	for i, c := range clients {
		if w.firstErr == nil {
			w.firstErr = errs[i]
		}
		for _, s := range c.samples {
			w.ops++
			if s.failed {
				w.failed++
				continue
			}
			w.lat = append(w.lat, s.ns)
			for int(s.class) >= len(w.byClass) {
				w.byClass = append(w.byClass, nil)
			}
			w.byClass[s.class] = append(w.byClass[s.class], s.ns)
		}
	}
	slices.Sort(w.lat)
	for _, l := range w.byClass {
		slices.Sort(l)
	}
	return w
}

func runFor(st state, clients []*client, d time.Duration) window {
	deadline := time.Now().Add(d)
	return runOps(st, clients, func(*client) bool { return time.Now().Before(deadline) })
}

func (w window) good() int { return w.ops - w.failed }

func (w window) throughput() float64 { return ratio(float64(w.good()), w.wall.Seconds()) }

// summary is a metric over the windows of a run: the quartiles of the
// per-window values, and med, the value reported — their median, except
// for the two allocation counts and the two latencies (see runEndToEnd).
type summary struct {
	q1, med, q3 float64
}

func summarize(ws []window, f func(window) float64) summary {
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = f(w)
	}
	q1, med, q3 := quartiles(vals)
	return summary{q1, med, q3}
}

// endToEndRun is one untraced run of a workload.
type endToEndRun struct {
	outcome
	samples int     // correct ops in the windows
	speed   float64 // the host's speed, median over the windows
	values  map[string]summary
}

func (r *endToEndRun) medians() map[string]float64 {
	out := make(map[string]float64, len(r.values))
	for k, s := range r.values {
		out[k] = s.med
	}
	return out
}

// runEndToEnd sets the workload up nSetups times (keeping the last),
// measures nWindows untraced windows that fill total together with the
// reference bursts between them, and verifies the final state.
//
// Every timing is reported at reference speed: the host this runs on
// is shared, and the same work takes 20 to 50 % longer from one minute
// to the next as its neighbours come and go. The bursts of the reference
// kernel around a window (or a set-up) say how fast the machine was
// then; throughput is divided and times are multiplied by that speed.
func runEndToEnd(w *workload, seed int64, total time.Duration, outDir string) (*endToEndRun, error) {
	slot := total / nWindows
	burst := slot / refShare
	n := numClients()

	var (
		e      *env
		st     state
		setups []float64
	)
	speed := refSpeed(n, burst)
	for i := 0; i < nSetups; i++ {
		if st != nil {
			if _, err := tearDown(e, st); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		if e, st, d, err = setUp(w, seed, outDir); err != nil {
			return nil, err
		}
		after := refSpeed(n, burst)
		setups = append(setups, d.Seconds()*(speed+after)/2)
		speed = after
	}

	ws := make([]window, nWindows)
	for i := range ws {
		ws[i] = runFor(st, e.clients, slot-burst)
		after := refSpeed(n, burst)
		ws[i].speed = (speed + after) / 2
		speed = after
	}

	// What an operator pays for the hosted state: sessions, stores,
	// caches and indexes are all still live here.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	r := &endToEndRun{values: map[string]summary{}}
	for _, win := range ws {
		r.add(win)
	}
	lateFailed, err := tearDown(e, st)
	if err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}
	r.addLate(lateFailed)

	// Throughput and CPU per op are window values, the median over the
	// windows reported. The latencies are percentiles over the ops of all
	// windows together, each op's time first brought to reference speed
	// with its own window's: a window of a few tenths of a second holds
	// too few ops for a tail percentile of its own.
	var all window
	for _, win := range ws {
		all.ops += win.ops
		all.failed += win.failed
		all.mallocs += win.mallocs
		all.allocBytes += win.allocBytes
		for _, ns := range win.lat {
			all.lat = append(all.lat, int64(float64(ns)*win.speed))
		}
	}
	slices.Sort(all.lat)
	perOp := func(f func(window) float64) func(window) float64 {
		return func(win window) float64 { return ratio(f(win), float64(win.good())) }
	}
	r.samples = len(all.lat)
	r.speed = summarize(ws, func(win window) float64 { return win.speed }).med
	r.values["throughput_ops_s"] = summarize(ws, func(win window) float64 { return ratio(win.throughput(), win.speed) })
	r.values["cpu_ms_per_op"] = summarize(ws, perOp(func(win window) float64 { return float64(win.cpu) / 1e6 * win.speed }))
	p50 := float64(percentile(all.lat, 50)) / 1e6
	r.values["latency_p50_ms"] = summary{p50, p50, p50}
	tail := float64(percentile(all.lat, w.tailPct)) / 1e6
	r.values["latency_tail_ms"] = summary{tail, tail, tail}
	// The two allocation counts are totals over all windows: a count has
	// no slow episode to be robust against, and a rare dear event (a store
	// checkpoint every 2048 commits) falls on one window or the next by
	// chance but on the run as a whole evenly.
	allocs := summarize(ws, perOp(func(win window) float64 { return float64(win.mallocs) }))
	allocs.med = ratio(float64(all.mallocs), float64(all.good()))
	r.values["allocs_per_op"] = allocs
	kb := summarize(ws, perOp(func(win window) float64 { return float64(win.allocBytes) / 1024 }))
	kb.med = ratio(float64(all.allocBytes)/1024, float64(all.good()))
	r.values["alloc_kb_per_op"] = kb
	heap := float64(ms.HeapAlloc) / (1 << 20)
	r.values["live_heap_mb"] = summary{heap, heap, heap}
	q1, med, q3 := quartiles(setups)
	r.values["setup_s"] = summary{q1, med, q3}
	return r, nil
}
