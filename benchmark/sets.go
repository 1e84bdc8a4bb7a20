package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// series is one metric of one workload over the runs of a result set.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

type workloadResult struct {
	// EndToEnd holds what the untraced runs printed (the end-to-end and
	// the host-timed metrics), PerLayer what the traced runs printed.
	EndToEnd map[string]*series `json:"end_to_end"`
	PerLayer map[string]*series `json:"per_layer"`
	// Notes holds op counts and per-metric sample counts, one entry per
	// run: reps, ops_per_rep, call_samples, tail_percentile, ...
	Notes     map[string][]float64 `json:"notes"`
	Attempted []int                `json:"attempted"`
	Failed    []int                `json:"failed"`
}

// resultSet is the file -all writes and -compare reads.
type resultSet struct {
	Host      hostInfo                   `json:"host"`
	Seed      uint64                     `json:"seed"`
	Runs      int                        `json:"runs"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runAll runs every workload in a process of its own, untraced and then
// traced, runs times over, and writes the result set.
func runAll(seed uint64, runs int, seconds float64, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := &resultSet{Host: fingerprint(), Seed: seed, Runs: runs, Seconds: seconds,
		Workloads: map[string]*workloadResult{}}
	bad := 0
	for _, name := range workloadNames {
		wr := &workloadResult{EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}, Notes: map[string][]float64{}}
		set.Workloads[name] = wr
		for r := 0; r < runs; r++ {
			for _, trace := range []string{"0", "1"} {
				var stdout bytes.Buffer
				cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed+uint64(r), 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
				cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &stdout), os.Stderr
				runErr := cmd.Run()
				run, err := parseRun(stdout.Bytes())
				if err != nil {
					return fmt.Errorf("%s: %w (%v)", name, err, runErr)
				}
				if runErr != nil || !run.line.Correct {
					bad++
				}
				into := wr.EndToEnd
				if trace == "1" {
					into = wr.PerLayer
				} else {
					for k, v := range run.notes {
						wr.Notes[k] = append(wr.Notes[k], v)
					}
				}
				for metric, v := range run.metrics {
					if into[metric] == nil {
						into[metric] = &series{Unit: v.Unit}
					}
					into[metric].Values = append(into[metric].Values, v.Value)
				}
				wr.Attempted = append(wr.Attempted, run.line.Attempted)
				wr.Failed = append(wr.Failed, run.line.Failed)
			}
		}
	}
	buf, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", outPath)
	if bad > 0 {
		return fmt.Errorf("%d run(s) failed a correctness check", bad)
	}
	return nil
}

// parsedRun is what one run printed.
type parsedRun struct {
	metrics map[string]metricValue // every "name value unit" line
	notes   map[string]float64     // every "# name = value" line
	line    resultLine             // the last line
}

// parseRun reads a run's standard output as printRecord wrote it.
func parseRun(out []byte) (parsedRun, error) {
	run := parsedRun{metrics: map[string]metricValue{}, notes: map[string]float64{}}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.line); err != nil {
		return run, fmt.Errorf("no result line: %w", err)
	}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		switch {
		case len(f) == 3 && f[0] != "#":
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				run.metrics[f[0]] = metricValue{v, f[2]}
			}
		case len(f) == 4 && f[0] == "#" && f[2] == "=":
			if v, err := strconv.ParseFloat(f[3], 64); err == nil {
				run.notes[f[1]] = v
			}
		}
	}
	return run, nil
}

func readSet(path string) (*resultSet, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// worsening returns by what share of a's median b's median is worse,
// in the metric's own direction (negative: b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	gap := (b - a) / a
	if d.Better == higher {
		gap = -gap
	}
	return gap
}

// exactCounts are per-layer counts that repeat between runs of one
// commit; -compare prints them beside the end-to-end metrics.
var exactCounts = []string{"na.events_per_op", "services.hepnos.rpcs_per_event", "core.trace_events_per_op"}

// compareSets prints, per workload and metric of the untraced run, both
// medians with their quartiles, the gap and, for the end-to-end metrics,
// the fixed bound; the host-timed metrics and the exact counts are
// printed beside them and not gated. It returns the process exit code: 1
// when B is worse than A by more than a bound, or fails where A did not.
func compareSets(w io.Writer, pathA, pathB string) int {
	var sets [2]*resultSet
	for i, path := range []string{pathA, pathB} {
		s, err := readSet(path)
		if err != nil {
			fmt.Fprintf(w, "compare: %v\n", err)
			return 2
		}
		sets[i] = s
	}
	return compareLoaded(w, sets[0], sets[1])
}

func compareLoaded(w io.Writer, a, b *resultSet) int {
	if a.Host != b.Host {
		fmt.Fprintf(w, "# note: host fingerprints differ\n#   A: %+v\n#   B: %+v\n", a.Host, b.Host)
	}
	fmt.Fprintf(w, "# A: seed %d, %d run(s) of %gs   B: seed %d, %d run(s) of %gs\n",
		a.Seed, a.Runs, a.Seconds, b.Seed, b.Runs, b.Seconds)
	fmt.Fprintf(w, "%-12s %-30s %14s %25s %14s %25s %8s %6s\n",
		"workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "worse", "bound")
	regressions := 0
	row := func(name string, d metricDef, sa, sb *series, gated bool) {
		if sa == nil || sb == nil {
			fmt.Fprintf(w, "%-12s %-30s missing from one set\n", name, d.Name)
			if gated {
				regressions++
			}
			return
		}
		ma, mb := median(sa.Values), median(sb.Values)
		a1, a3 := quartiles(sa.Values)
		b1, b3 := quartiles(sb.Values)
		gap := worsening(d, ma, mb)
		verdict := ""
		if gated && gap > d.Bound {
			verdict = "  REGRESSION"
			regressions++
		}
		bound := "-"
		if gated {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
		}
		fmt.Fprintf(w, "%-12s %-30s %14.6g [%10.5g, %10.5g] %14.6g [%10.5g, %10.5g] %+7.1f%% %6s%s\n",
			name, d.Name, ma, a1, a3, mb, b1, b3, 100*gap, bound, verdict)
	}
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-12s missing from one set\n", name)
			regressions++
			continue
		}
		for _, d := range endToEnd {
			row(name, d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name], true)
		}
		for _, d := range hostTimed {
			row(name, d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name], false)
		}
		for _, n := range exactCounts {
			row(name, metricDef{Name: n, Better: lower}, wa.PerLayer[n], wb.PerLayer[n], false)
		}
		if fa, fb := sum(wa.Failed), sum(wb.Failed); fb > fa {
			fmt.Fprintf(w, "%-12s failed ops rose from %d to %d  REGRESSION\n", name, fa, fb)
			regressions++
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "compare: %d metric(s) beyond their bound\n", regressions)
		return 1
	}
	fmt.Fprintln(w, "compare: every end-to-end metric within its bound")
	return 0
}

func sum(vs []int) int {
	t := 0
	for _, v := range vs {
		t += v
	}
	return t
}
