package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"symbiosys/internal/analysis"
	"symbiosys/internal/analysis/report"
	"symbiosys/internal/core"
)

// ReportConfig opts an experiment run into automatic analysis-plane
// reports: when Dir is set, the driver renders its trace dumps into
// dominant-path (and, where a baseline exists, diff) reports as the run
// ends — from run to report without invoking the CLIs by hand.
type ReportConfig struct {
	// Dir is the directory reports are written into (created if
	// missing); empty disables reporting.
	Dir string
	// Mode is the output mode: cli, tui, or html. Default html — the
	// self-contained artifact to attach to a run.
	Mode string
}

// reportTop bounds the path shapes per report.
const reportTop = 10

func (rc ReportConfig) enabled() bool { return rc.Dir != "" }

func (rc ReportConfig) mode() (report.Mode, error) {
	if rc.Mode == "" {
		return report.ModeHTML, nil
	}
	return report.ParseMode(rc.Mode)
}

// writeFlame renders the dominant-path report over one run's trace
// dumps and returns the written path.
func (rc ReportConfig) writeFlame(name, title string, dumps []*core.TraceDump) (string, error) {
	mode, err := rc.mode()
	if err != nil {
		return "", err
	}
	f := analysis.BuildFlame(analysis.MergeTraces(dumps))
	m := report.FromFlame(title, f, reportTop)
	m.Generated = time.Now().Format(time.RFC3339)
	return rc.write(name, mode, m)
}

// writeDiff renders the two-run critical-path comparison and returns
// the written path.
func (rc ReportConfig) writeDiff(name, title string, before, after []*core.TraceDump) (string, error) {
	mode, err := rc.mode()
	if err != nil {
		return "", err
	}
	d := analysis.DiffFlames(
		analysis.BuildFlame(analysis.MergeTraces(before)),
		analysis.BuildFlame(analysis.MergeTraces(after)),
	)
	m := report.FromFlameDiff(title, d, reportTop)
	m.Generated = time.Now().Format(time.RFC3339)
	return rc.write(name, mode, m)
}

func (rc ReportConfig) write(name string, mode report.Mode, m *report.Model) (string, error) {
	if err := os.MkdirAll(rc.Dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(rc.Dir, name+mode.Ext())
	if err := report.WriteFile(path, mode, m); err != nil {
		return "", fmt.Errorf("experiments: write report %s: %w", path, err)
	}
	return path, nil
}
