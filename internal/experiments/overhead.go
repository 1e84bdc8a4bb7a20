package experiments

import (
	"fmt"
	"time"

	"symbiosys/internal/core"
)

// OverheadConfig drives the Figure 13 overhead study: the same HEPnOS
// data-loader workload executed at each measurement stage, several
// repetitions each.
type OverheadConfig struct {
	Base HEPnOSConfig // deployment/workload shape (stage is overridden)
	Reps int          // paper: 5
}

// StageTiming is one stage's runs and their execution times.
type StageTiming struct {
	Stage        core.Stage
	Runs         []*Run
	Mean         time.Duration
	Min          time.Duration
	Max          time.Duration
	TraceSamples int
}

// OverheadResult is the Figure 13 dataset.
type OverheadResult struct {
	Stages []StageTiming
}

// OverheadVsBaseline returns stage s's mean slowdown relative to the
// baseline mean (1.0 = no overhead).
func (r *OverheadResult) OverheadVsBaseline(s core.Stage) float64 {
	var base, stage time.Duration
	for _, st := range r.Stages {
		if st.Stage == core.StageOff {
			base = st.Mean
		}
		if st.Stage == s {
			stage = st.Mean
		}
	}
	if base == 0 {
		return 0
	}
	return float64(stage) / float64(base)
}

// RunOverheadStudy executes the workload at all four stages, each run
// named <config>-stage<N>-r<rep>.
func RunOverheadStudy(cfg OverheadConfig, metricsAddr, out string) (*OverheadResult, error) {
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	res := &OverheadResult{}
	for _, stage := range []core.Stage{core.StageOff, core.StageInject, core.StageProfile, core.StageFull} {
		res.Stages = append(res.Stages, StageTiming{Stage: stage})
	}
	// Each repetition runs every stage once, so that load which comes or
	// goes during the study falls on all stages alike rather than on
	// whichever ran last.
	for rep := 1; rep <= cfg.Reps; rep++ {
		for i := range res.Stages {
			st := &res.Stages[i]
			c := cfg.Base
			c.Stage = st.Stage
			c.Name = fmt.Sprintf("%s-stage%d-r%d", cfg.Base.Name, st.Stage, rep)
			r, err := RunHEPnOS(c, metricsAddr, out)
			if err != nil {
				return nil, err
			}
			st.Runs = append(st.Runs, r.Run)
			st.TraceSamples = max(st.TraceSamples, r.Traces.NumEvents())
		}
	}
	for s := range res.Stages {
		st := &res.Stages[s]
		for i, run := range st.Runs {
			st.Mean += run.WallTime
			if i == 0 || run.WallTime < st.Min {
				st.Min = run.WallTime
			}
			st.Max = max(st.Max, run.WallTime)
		}
		st.Mean /= time.Duration(len(st.Runs))
	}
	return res, nil
}
