package experiments

import (
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

// StageTiming is one stage's measured execution times.
type StageTiming struct {
	Stage        core.Stage
	Times        []time.Duration
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

// RunOverheadStudy executes the workload at all four stages.
func RunOverheadStudy(cfg OverheadConfig) (*OverheadResult, error) {
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	out := &OverheadResult{}
	for _, stage := range []core.Stage{core.StageOff, core.StageInject, core.StageProfile, core.StageFull} {
		out.Stages = append(out.Stages, StageTiming{Stage: stage})
	}
	// Each repetition runs every stage once, so that load which comes or
	// goes during the study falls on all stages alike rather than on
	// whichever ran last.
	for rep := 0; rep < cfg.Reps; rep++ {
		for i := range out.Stages {
			st := &out.Stages[i]
			c := cfg.Base
			c.Stage = st.Stage
			res, err := RunHEPnOS(c)
			if err != nil {
				return nil, err
			}
			st.Times = append(st.Times, res.WallTime)
			if res.TraceSamples > st.TraceSamples {
				st.TraceSamples = res.TraceSamples
			}
		}
	}
	for s := range out.Stages {
		st := &out.Stages[s]
		for i, t := range st.Times {
			st.Mean += t
			if i == 0 || t < st.Min {
				st.Min = t
			}
			if t > st.Max {
				st.Max = t
			}
		}
		st.Mean /= time.Duration(len(st.Times))
	}
	return out, nil
}
