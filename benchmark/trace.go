package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// spanMetrics maps the harness spans that are per-layer metrics of
// their own to the metric's name and the unit divisor from microseconds.
var spanMetrics = map[string]struct {
	metric string
	perUS  float64
}{
	"sdskv.put":               {"services.sdskv.put_p50_us", 1},
	"sdskv.get":               {"services.sdskv.get_p50_us", 1},
	"sdskv.putmulti":          {"services.sdskv.putmulti_call_us", 1},
	"sdskv.getmulti":          {"services.sdskv.getmulti_call_us", 1},
	"mobject.write":           {"services.mobject.write_p50_us", 1},
	"mobject.read":            {"services.mobject.read_p50_us", 1},
	"analysis.read":           {"analysis.read_ms", 1e3},
	"analysis.merge_profiles": {"analysis.merge_profiles_ms", 1e3},
	"analysis.merge_traces":   {"analysis.merge_traces_ms", 1e3},
	"analysis.extract_paths":  {"analysis.extract_paths_ms", 1e3},
	"analysis.fold_flame":     {"analysis.fold_flame_ms", 1e3},
	"analysis.render":         {"analysis.render_ms", 1e3},
}

// runTraced is the traced run: the same workload, seed and op counts
// for a few reps, with the harness recording a span around every public
// call it makes and snapshotting every layer's counters around a rep.
// It yields the per-layer metrics and writes the spans to
// benchmark/out/<workload>.spans.jsonl.
//
// The seconds are split three ways: reps paired with and without span
// recording (the tracing overhead; the reps without also give the
// host-timed metrics), reps paired at StageOff and StageFull (what the
// always-on instrument costs), and the probes.
func runTraced(w workload, seed uint64, seconds float64) (*record, error) {
	sp := w.spec()
	r := newRunner(w, seed)
	if err := r.warmUp(); err != nil {
		return nil, err
	}
	out := r.rec
	m := out.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	budget := func(share float64) time.Time {
		return time.Now().Add(time.Duration(share * seconds * float64(time.Second)))
	}

	// Phase A: reps with span recording on and off, interleaved.
	var on, off []repSample
	var before, ended, settled counters
	var split profileSplit
	traced := hooks{
		start: func() error {
			setTraced(w.lanes(), true)
			if d := w.live(); d != nil {
				before = d.counters()
			}
			return nil
		},
		ended: func() error {
			setTraced(w.lanes(), false)
			if d := w.live(); d != nil {
				ended = d.counters()
			}
			return nil
		},
		idle: func() error {
			if d := w.live(); d != nil {
				settled = d.counters()
				split = d.profile()
			}
			return nil
		},
	}
	for deadline := budget(0.45); len(on) < 2 || time.Now().Before(deadline); {
		// Alternate which side runs first, so drift cancels.
		tracedFirst := len(on)%2 == 0
		for _, isTraced := range []bool{tracedFirst, !tracedFirst} {
			h, into := hooks{}, &off
			if isTraced {
				h, into = traced, &on
			}
			s, err := r.cycle(h)
			if err != nil {
				return nil, err
			}
			*into = append(*into, s)
		}
	}
	rate := func(reps []repSample) float64 { return median(column(reps, opsPerS)) }
	m["bench.tracing_overhead_frac"] = 1 - rate(on)/rate(off)
	hostTimedMetrics(m, out.Notes, sp, w.lanes(), off)
	ops := float64(sp.repOps)

	if sp.rpc {
		counterMetrics(m, before, ended, settled, ops)
		splitMetrics(m, split, ops)

		// Phase B: the instrument off and on, interleaved.
		var stageOff, stageFull []repSample
		for deadline := budget(0.25); len(stageOff) < 2 || time.Now().Before(deadline); {
			for _, full := range []bool{false, true} {
				full := full
				s, err := r.cycle(hooks{start: func() error { w.live().setStage(full); return nil }})
				if err != nil {
					return nil, err
				}
				if full {
					stageFull = append(stageFull, s)
				} else {
					stageOff = append(stageOff, s)
				}
			}
		}
		m["core.stage_off_gain"] = rate(stageOff) / rate(stageFull)
	} else {
		m["analysis.allocs_per_request"] = on[len(on)-1].allocsPerOp
	}
	if x, ok := w.(interface{ extra(map[string]float64) }); ok {
		x.extra(m)
	}

	var spans [][]span
	var calls []span
	for _, l := range w.lanes() {
		spans = append(spans, l.spans)
		calls = append(calls, l.spans...)
	}
	for name, us := range medianSpanUS(calls) {
		if sm, ok := spanMetrics[name]; ok {
			m[sm.metric] = us / sm.perUS
		}
	}

	// Phase C: the probes, each a span of its own.
	if sp.rpc {
		pl := newLane("probes", true, 8)
		if err := probeMetrics(m, sp.shape, pl); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		spans = append(spans, pl.spans)
	}
	m["bench.failed_frac"] = float64(out.Failed) / float64(out.Attempted)

	if err := writeSpans(filepath.Join("benchmark", "out", sp.name+".spans.jsonl"), spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	out.Notes["spans"] = float64(len(calls))
	out.Notes["traced_reps"] = float64(len(on))
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[name] = 0
		}
	}
	return out, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics fills the (C) metrics: public counter deltas over one
// traced rep. Scheduling counters are read the moment the rep ends, so
// the idle spinning of the settle time is not charged to the ops;
// message, frame and trace counts are read once the deployment has
// settled, so they are whole.
func counterMetrics(m map[string]float64, before, after, settled counters, ops float64) {
	d := func(a, b uint64) float64 { return float64(a - b) }
	m["na.events_per_op"] = d(settled.naEvents, before.naEvents) / ops
	m["na.cq_overflows"] = d(settled.naOverflows, before.naOverflows)
	m["mercury.bulk_bytes_per_op"] = d(settled.bulkBytes, before.bulkBytes) / ops
	m["mercury.eager_overflows_per_op"] = d(settled.eagerOverflows, before.eagerOverflows) / ops
	m["mercury.batched_ops_per_frame"] = ratio(d(settled.batchedOps, before.batchedOps), d(settled.batchesForwarded, before.batchesForwarded))
	m["mercury.posted_handles_hwm"] = float64(settled.postedHWM)
	m["mercury.cq_hwm"] = float64(settled.cqHWM)
	m["mercury.stale_responses"] = d(settled.staleResponses, before.staleResponses)
	m["abt.quanta_per_op"] = d(after.quanta, before.quanta) / ops
	m["abt.steals_per_op"] = d(after.steals, before.steals) / ops
	m["abt.parks_per_op"] = d(after.parks, before.parks) / ops
	m["abt.wakes_per_op"] = d(after.wakes, before.wakes) / ops
	m["abt.handler_pool_hwm"] = float64(settled.handlerPoolHWM)
	m["margo.spin_polls_per_op"] = d(after.spinPolls, before.spinPolls) / ops
	m["margo.progress_parks_per_op"] = d(after.progressParks, before.progressParks) / ops
	m["margo.retries"] = d(settled.retries, before.retries)
	m["margo.timeouts"] = d(settled.timeouts, before.timeouts)
	flushes := d(settled.batchFlushes, before.batchFlushes)
	m["batch.coalesce_ratio"] = ratio(d(settled.batchOps, before.batchOps), flushes)
	m["batch.flushes_per_op"] = flushes / ops
	m["batch.flush_by_size_frac"] = ratio(d(settled.batchFlushFull, before.batchFlushFull), flushes)
	events := d(settled.traceEvents, before.traceEvents)
	m["core.trace_events_per_op"] = events / ops
	m["core.trace_dropped_frac"] = ratio(d(settled.traceDropped, before.traceDropped), events)
	m["core.sink_errors"] = d(settled.sinkErrors, before.sinkErrors)
}

// splitMetrics fills the (D) metrics from the stack's own profile of
// the traced rep.
func splitMetrics(m map[string]float64, s profileSplit, ops float64) {
	us := func(ns float64) float64 { return ns / 1e3 / ops }
	m["mercury.input_ser_us_per_op"] = us(s.inputSer)
	m["mercury.input_deser_us_per_op"] = us(s.inputDeser)
	m["mercury.output_ser_us_per_op"] = us(s.outputSer)
	m["mercury.rdma_us_per_op"] = us(s.rdma)
	m["mercury.origin_cb_us_per_op"] = us(s.originCB)
	m["margo.handler_wait_us_per_op"] = us(s.handlerWait)
	m["margo.target_cb_us_per_op"] = us(s.targetCB)
	m["margo.unaccounted_frac"] = ratio(s.unaccounted, s.originExec)
	m["abt.blocked_hwm"] = s.blockedHWM
	m["core.dump_ms"] = s.dumpMS
	m["services.sdskv.put_packed_exec_us_per_op"] = us(s.putPackedExec)
	m["services.mobject.nested_rpcs_per_op"] = s.nestedCalls / ops
	m["services.hepnos.rpcs_per_event"] = s.putPackedCalls / ops
}

// probeMetrics runs the (P) probes with the workload's message shape
// and derives the ladder: what one margo forward costs beyond the
// layers below it, and how much of it no probe explains.
func probeMetrics(m map[string]float64, shape probeShape, l *lane) error {
	t := l.begin("probe.na")
	naP, err := probeNA(shape)
	l.stage(t)
	if err != nil {
		return err
	}
	t = l.begin("probe.mercury")
	merP, err := probeMercury(shape, naP.sendToCQUS)
	l.stage(t)
	if err != nil {
		return err
	}
	t = l.begin("probe.abt")
	abtP := probeABT()
	l.stage(t)
	t = l.begin("probe.margo")
	marP, err := probeMargo(shape)
	l.stage(t)
	if err != nil {
		return err
	}
	t = l.begin("probe.core")
	coreP := probeCore()
	l.stage(t)
	t = l.begin("probe.kv")
	kvP, err := probeKV(shape)
	l.stage(t)
	if err != nil {
		return err
	}

	m["na.send_to_cq_us"] = naP.sendToCQUS
	m["na.rdma_get_us"] = naP.rdmaGetUS
	m["na.allocs_per_msg"] = naP.allocsPerMsg
	m["mercury.encode_ns"] = merP.encodeNS
	m["mercury.decode_ns"] = merP.decodeNS
	m["mercury.codec_allocs"] = merP.codecAllocs
	m["mercury.batch_add_ns"] = merP.batchAddNS
	m["mercury.rtt_self_us"] = merP.rttSelfUS
	m["mercury.allocs_per_rtt"] = merP.allocsPerRTT
	m["abt.quantum_switch_ns"] = abtP.quantumSwitchNS
	m["abt.spawn_to_run_us"] = abtP.spawnToRunUS
	m["abt.eventual_wake_us"] = abtP.eventualWakeUS
	m["abt.allocs_per_spawn"] = abtP.allocsPerSpawn
	m["margo.forward_rtt_us"] = marP.forwardRTTUS
	m["margo.forward_allocs"] = marP.forwardAllocs
	m["core.record_ns"] = coreP.recordNS
	m["kv.put_ns"] = kvP.putNS
	m["kv.get_ns"] = kvP.getNS
	m["kv.allocs_per_put"] = kvP.allocsPerPut

	// A margo forward is the Class-only round trip (fabric model, two na
	// hops, mercury) plus one handler-ULT spawn, one wake of the issuing
	// ULT and margo's own work. The instrument records on both sides.
	self := marP.forwardRTTUS - merP.rttUS - abtP.spawnToRunUS - abtP.eventualWakeUS
	m["margo.forward_self_us"] = self
	m["bench.ladder_residual_frac"] = (self - 2*coreP.recordNS/1e3) / marP.forwardRTTUS
	m["bench.profile_vs_probe_gap"] = math.Abs(marP.profileMeanUS-marP.forwardMeanUS) / marP.forwardMeanUS
	return nil
}
