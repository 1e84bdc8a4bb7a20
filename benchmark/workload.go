package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// workload is one of the six named workloads. All are closed loops: a
// driver issues its next call only after the previous one returned. A
// rep has a fixed op count, so counts repeat exactly between runs; how
// many reps fit into the run's seconds is the only thing time decides.
// Every rep runs on a deployment of its own, so each one starts from
// the same state and a run sets up as often as it measures.
type workload interface {
	spec() workloadSpec
	// setup builds the deployment for rep n of a run, preloads it and
	// warms it up; everything before the rep's first timed op.
	setup(seed uint64, n int) error
	// rep runs the rep: a fixed number of ops, each checked.
	rep() (repCount, error)
	// verify checks the deployment's end state once the rep is over and
	// returns how many checks it made and how many failed.
	verify() (repCount, error)
	// live is the deployment whose counters, trace buffers and profile
	// describe the rep that just ran; nil when no RPC layer runs.
	live() *deploy
	// traceBytes reports the size of the rep's trace and the events it
	// holds.
	traceBytes() (bytes int64, events uint64, err error)
	// lanes returns the recorders of the rep drivers.
	lanes() []*lane
	teardown() error
}

type workloadSpec struct {
	name string
	why  string
	// tail is the fixed tail percentile of op_tail_us: 99 for the
	// workloads whose calls are single ops (thousands of samples per
	// rep), 90 for those whose calls carry many ops, 75 for hepnos_*,
	// whose calls are whole loader runs. A run with too few calls for it
	// steps down (tailPercentile).
	tail float64
	// callOps is how many ops one outermost driver call carries.
	callOps int
	// repOps is the fixed op count of one rep.
	repOps int
	shape  probeShape
	// rpc is false for the workload in which no RPC layer runs.
	rpc bool
}

type repCount struct{ ops, failed int }

// minReps is the least number of timed reps a run makes, however slow
// the host.
const minReps = 5

var workloadNames = []string{"hepnos_c7", "hepnos_c4", "sdskv_mixed", "sdskv_multi", "mobject_ior", "analyze_c7"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "hepnos_c7", "hepnos_c4":
		return newHEPnOSWorkload(name), nil
	case "sdskv_mixed":
		return newKVWorkload(name, false), nil
	case "sdskv_multi":
		return newKVWorkload(name, true), nil
	case "mobject_ior":
		return newMobjectWorkload(), nil
	case "analyze_c7":
		return newAnalyzeWorkload(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// repSample is what one timed rep measured.
type repSample struct {
	// calls is, per lane, the range of latency samples the rep added.
	calls                 [][2]int
	opsPerS               float64
	cpuPerOp, allocsPerOp float64
	bytesPerOp            float64
}

// timeRep runs one rep between two snapshots of the clock, the
// process's CPU time and the allocator's counters.
func timeRep(w workload) (repSample, repCount, error) {
	ls := w.lanes()
	s := repSample{calls: make([][2]int, len(ls))}
	for i, l := range ls {
		s.calls[i][0] = len(l.samples)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuMicros()
	t0 := time.Now()
	c, err := w.rep()
	wall := time.Since(t0).Seconds()
	cpu1 := cpuMicros()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return s, c, err
	}
	for i, l := range ls {
		s.calls[i][1] = len(l.samples)
	}
	ops := float64(c.ops)
	s.opsPerS = ops / wall
	s.cpuPerOp = (cpu1 - cpu0) / ops
	s.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / ops
	s.bytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	return s, c, nil
}

func column(reps []repSample, pick func(repSample) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = pick(r)
	}
	return out
}

// pooledSamples merges the per-op latency samples the given reps added
// to every lane, sorted ascending.
func pooledSamples(ls []*lane, reps []repSample) []float64 {
	var all []float64
	for _, r := range reps {
		for i, l := range ls {
			all = append(all, l.samples[r.calls[i][0]:r.calls[i][1]]...)
		}
	}
	sort.Float64s(all)
	return all
}

func setTraced(ls []*lane, on bool) {
	for _, l := range ls {
		l.traced = on
	}
}

// Pickers for column.
func opsPerS(r repSample) float64     { return r.opsPerS }
func cpuPerOp(r repSample) float64    { return r.cpuPerOp }
func allocsPerOp(r repSample) float64 { return r.allocsPerOp }
func bytesPerOp(r repSample) float64  { return r.bytesPerOp }

// hostTimedMetrics fills the metrics that move with the host's speed
// from a run's reps: rates are the median over all reps, latencies are
// pooled over every call of all reps, and the tail is the workload's
// fixed percentile unless fewer than ten samples lie beyond it.
func hostTimedMetrics(m, notes map[string]float64, sp workloadSpec, ls []*lane, reps []repSample) {
	samples := pooledSamples(ls, reps)
	tail := tailPercentile(len(samples), sp.tail)
	m["ops_per_s"] = median(column(reps, opsPerS))
	m["op_p50_us"] = percentile(samples, 50)
	m["op_tail_us"] = percentile(samples, tail)
	m["cpu_us_per_op"] = median(column(reps, cpuPerOp))
	m["peak_rss_mb"] = peakRSSMiB()
	notes["reps"] = float64(len(reps))
	notes["ops_per_rep"] = float64(sp.repOps)
	notes["ops_per_call"] = float64(sp.callOps)
	notes["call_samples"] = float64(len(samples))
	notes["tail_percentile"] = tail
	notes["samples_beyond_tail"] = float64(beyond(len(samples), tail))
}

// runner makes the reps of one run and keeps its books.
type runner struct {
	w      workload
	seed   uint64
	n      int // reps made so far
	rec    *record
	setups []float64 // seconds each set-up took
}

func newRunner(w workload, seed uint64) *runner {
	return &runner{w: w, seed: seed, rec: &record{Metrics: map[string]float64{}, Notes: map[string]float64{}}}
}

// hooks are what a run does around one rep. Any may be nil.
type hooks struct {
	start func() error // after set-up, before the rep's first op
	ended func() error // the moment the rep has returned
	idle  func() error // once the deployment has gone idle, before it is verified and torn down
}

func call(fn func() error) error {
	if fn == nil {
		return nil
	}
	return fn()
}

// cycle makes one rep on a deployment of its own: set-up (timed), the
// timed rep, the end-state checks, teardown.
func (r *runner) cycle(h hooks) (repSample, error) {
	w := r.w
	t := time.Now()
	if err := w.setup(r.seed, r.n); err != nil {
		w.teardown()
		return repSample{}, fmt.Errorf("setup of rep %d: %w", r.n, err)
	}
	r.setups = append(r.setups, time.Since(t).Seconds())
	s, err := r.measure(h)
	if terr := w.teardown(); err == nil && terr != nil {
		err = fmt.Errorf("teardown: %w", terr)
	}
	if err != nil {
		return s, fmt.Errorf("rep %d: %w", r.n, err)
	}
	r.n++
	return s, nil
}

func (r *runner) measure(h hooks) (repSample, error) {
	w := r.w
	if err := call(h.start); err != nil {
		return repSample{}, err
	}
	s, c, err := timeRep(w)
	if err != nil {
		return s, err
	}
	r.rec.Attempted += c.ops
	r.rec.Failed += c.failed
	if err := call(h.ended); err != nil {
		return s, err
	}
	if d := w.live(); d != nil {
		if err := d.quiesce(); err != nil {
			return s, err
		}
		if d.traceDropped() > 0 {
			// A truncated trace is a wrong answer from the instrument.
			r.rec.Failed++
		}
	}
	if err := call(h.idle); err != nil {
		return s, err
	}
	v, err := w.verify()
	if err != nil {
		return s, fmt.Errorf("verify: %w", err)
	}
	r.rec.Attempted += v.ops
	r.rec.Failed += v.failed
	return s, nil
}

// warmUp makes the run's one untimed rep, which also pays for the
// runtime's own start, and forgets what it measured.
func (r *runner) warmUp() error {
	if _, err := r.cycle(hooks{}); err != nil {
		return err
	}
	r.setups = r.setups[:0]
	for _, l := range r.w.lanes() {
		l.samples = l.samples[:0]
	}
	runtime.GC()
	return nil
}

// runEndToEnd is the untraced run: one untimed warm-up rep, then timed
// reps until the seconds are used, each on a fresh deployment whose
// set-up is a sample of setup_s.
func runEndToEnd(w workload, seed uint64, seconds float64) (*record, error) {
	sp := w.spec()
	r := newRunner(w, seed)
	if err := r.warmUp(); err != nil {
		return nil, err
	}

	var reps []repSample
	var traceBytes int64
	var traceEvents uint64
	done := false
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// The trace is exported once, from the last rep's deployment.
	export := func() (err error) {
		timed := len(reps) + 1 // the rep that just ran is not in reps yet
		if done = timed >= minReps && !time.Now().Before(deadline); done {
			traceBytes, traceEvents, err = w.traceBytes()
		}
		return err
	}
	for !done {
		s, err := r.cycle(hooks{idle: export})
		if err != nil {
			return nil, err
		}
		reps = append(reps, s)
	}

	out := r.rec
	out.RepOpsPerS, out.RepSetupS = column(reps, opsPerS), r.setups
	m, n := out.Metrics, out.Notes
	m["setup_s"] = median(r.setups)
	m["allocs_per_op"] = median(column(reps, allocsPerOp))
	m["alloc_bytes_per_op"] = median(column(reps, bytesPerOp))
	m["trace_bytes_per_op"] = float64(traceBytes) / float64(sp.repOps)
	hostTimedMetrics(m, n, sp, w.lanes(), reps)
	n["trace_events_last_rep"] = float64(traceEvents)
	return out, nil
}
