// Command symbench is the repository's benchmark: six named workloads
// over the whole stack, each run in its own OS process from one seed,
// with correctness checked in the same command.
//
//	symbench --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload (the contract BENCHMARK.json names):
//	    --trace 0 prints the end-to-end metrics and the host-timed
//	    ones, --trace 1 the per-layer metrics of a traced run; the
//	    last line of standard output is one JSON object.
//	symbench -all [-seed N] [-runs K] [-seconds S] [-out FILE]
//	    every workload, untraced then traced, K times; writes a result
//	    set with host fingerprint, seed, op counts and sample counts.
//	symbench -compare A.json B.json
//	    two result sets side by side, per workload and end-to-end
//	    metric, against the fixed bounds; non-zero exit on a regression.
//	symbench -describe
//	    BENCHMARK.json as the harness's own tables define it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// record is what one run of one workload produced.
type record struct {
	Workload   string
	Seed       uint64
	Traced     bool
	Correct    bool
	Attempted  int
	Failed     int
	Metrics    map[string]float64
	Notes      map[string]float64 // op counts and sample counts behind the metrics
	RepOpsPerS []float64
	RepSetupS  []float64
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed         = flag.Uint64("seed", 1, "seed every input of the run is derived from")
		seconds      = flag.Float64("seconds", runSeconds, "how long the run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		all          = flag.Bool("all", false, "run every workload, untraced and traced, each in its own process")
		runs         = flag.Int("runs", 1, "with -all: runs per workload; run r uses seed+r")
		outPath      = flag.String("out", "benchmark/out/results.json", "with -all: where the result set goes")
		compare      = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
		describeFlag = flag.Bool("describe", false, "print BENCHMARK.json as the harness defines it")
	)
	flag.Parse()

	switch {
	case *describeFlag:
		buf, err := describe()
		if err != nil {
			fatal(1, "symbench: %v", err)
		}
		os.Stdout.Write(buf)
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: symbench -compare A.json B.json")
		}
		os.Exit(compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *all:
		if err := runAll(*seed, *runs, *seconds, *outPath); err != nil {
			fatal(1, "symbench: %v", err)
		}
	case *workloadName != "":
		rec, err := runOne(*workloadName, *seed, *seconds, *trace != 0)
		if err != nil {
			fatal(1, "symbench: %s: %v", *workloadName, err)
		}
		printRecord(rec)
		if !rec.Correct {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

func runOne(name string, seed uint64, seconds float64, traced bool) (*record, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	run := runEndToEnd
	if traced {
		run = runTraced
	}
	rec, err := run(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	rec.Workload, rec.Seed, rec.Traced, rec.Correct = name, seed, traced, rec.Failed == 0
	return rec, nil
}

// printRecord prints every metric by name and unit, then the facts
// behind them, and last the one-line JSON object the driver reads.
func printRecord(r *record) {
	// The result line carries defs; also is what a run prints beyond them.
	defs, also := endToEnd, hostTimed
	if r.Traced {
		defs, also = perLayer, nil
	}
	fmt.Printf("# %s seed=%d traced=%v\n", r.Workload, r.Seed, r.Traced)
	for _, d := range append(append([]metricDef(nil), defs...), also...) {
		fmt.Printf("%-44s %16.9g %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	notes := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Printf("# %s = %g\n", k, r.Notes[k])
	}
	if len(r.RepOpsPerS) > 0 {
		fmt.Printf("# ops_per_s by rep = %.6g\n", r.RepOpsPerS)
		fmt.Printf("# setup_s by rep = %.4g\n", r.RepSetupS)
	}
	fmt.Printf("# failed_frac = %g (%d of %d)\n", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)

	line := resultLine{r.Correct, r.Attempted, r.Failed, map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{r.Metrics[d.Name], d.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fatal(1, "symbench: %v", err)
	}
	fmt.Println(string(buf))
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
