package main

import (
	"fmt"
	"path/filepath"
)

// analyzeWorkload is the analyst's side of the paper (Table V): set-up
// captures the profile and trace dumps of one short hepnos_c7 rep (1024
// events per loader: 2048 requests, 8192 trace events) to disk and
// shuts the deployment down; a timed pass reads them back, merges them,
// extracts every request's critical path, folds the flame, ranks the
// dominant callpaths and renders both reports. One op is one request
// analysed; one call is one pass; a rep is eight passes, so that a rep
// spans several collector cycles like the reps of the other workloads
// do. No process of the stack exists while the passes run, so every
// RPC-side change predicts no change here.
type analyzeWorkload struct {
	sp  workloadSpec
	dir string
	l   *lane

	dumpBytes int64
	last      analysisResult
}

// captureWorkload is the hepnos_c7 rep whose dumps are analysed. It is
// short so that a run of a few seconds makes enough passes to report a
// tail over them.
func captureWorkload() *hepnosWorkload { return newHEPnOSWorkload("hepnos_c7").withEvents(1024) }

// passesPerRep is how many analysis passes one rep makes.
const passesPerRep = 8

func newAnalyzeWorkload() *analyzeWorkload {
	c7 := captureWorkload().sp
	return &analyzeWorkload{
		dir: filepath.Join("benchmark", "out", "analyze_c7.dumps"),
		l:   newLane("analyst", false, 4096),
		sp: workloadSpec{
			name: "analyze_c7", tail: 90, rpc: false,
			callOps: c7.repOps, repOps: passesPerRep * c7.repOps,
			why: "offline analysis of one hepnos_c7 rep's dumps (read, merge, critical paths, flame, render): the analyst's side and the slowest code of the old ledger; no RPC layer runs",
		},
	}
}

func (w *analyzeWorkload) spec() workloadSpec { return w.sp }
func (w *analyzeWorkload) live() *deploy      { return nil }
func (w *analyzeWorkload) lanes() []*lane     { return []*lane{w.l} }

func (w *analyzeWorkload) setup(seed uint64, n int) error {
	c7 := captureWorkload()
	if err := c7.setup(seed, n); err != nil {
		c7.teardown()
		return err
	}
	c, err := c7.rep()
	if err == nil && c.failed > 0 {
		err = fmt.Errorf("capture: %d of %d events failed", c.failed, c.ops)
	}
	if err == nil {
		err = c7.live().quiesce()
	}
	if err == nil {
		w.dumpBytes, err = c7.live().writeDumps(w.dir)
	}
	if terr := c7.teardown(); err == nil {
		err = terr
	}
	return err
}

func (w *analyzeWorkload) rep() (repCount, error) {
	var c repCount
	for i := 0; i < passesPerRep; i++ {
		t := w.l.begin("analysis.pass")
		res, err := analyzeDumps(w.dir, w.l)
		w.l.end(t, w.sp.callOps)
		if err != nil {
			return c, err
		}
		if res.requests != w.sp.callOps {
			return c, fmt.Errorf("capture holds %d requests, want %d", res.requests, w.sp.callOps)
		}
		w.last = res
		c.ops += res.requests
		if d := res.paths - res.requests; d != 0 {
			if d < 0 {
				d = -d
			}
			c.failed += d
		}
		c.failed += res.incomplete
		if res.dropped > 0 {
			c.failed++
		}
	}
	return c, nil
}

func (w *analyzeWorkload) verify() (repCount, error) { return repCount{}, nil }

// traceBytes reports the size of the input trace dumps on disk.
func (w *analyzeWorkload) traceBytes() (int64, uint64, error) {
	return passesPerRep * w.dumpBytes, uint64(passesPerRep * 4 * w.last.requests), nil
}

// extra adds what only this workload can report.
func (w *analyzeWorkload) extra(m map[string]float64) {
	m["analysis.incomplete_requests"] = float64(w.last.incomplete)
}

func (w *analyzeWorkload) teardown() error { return nil }
