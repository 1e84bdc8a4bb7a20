package main

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The percentile rule: a tail percentile is reported only with at least
// ten samples beyond it; with fewer the rule steps down.
func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{344064, 99, 99}, // sdskv_mixed at full length
		{1000, 99, 99},   // exactly ten beyond p99
		{999, 99, 90},    // nine beyond p99
		{128, 90, 90},
		{100, 90, 90}, // exactly ten beyond p90
		{99, 90, 75},
		{40, 75, 75},
		{39, 75, 50},
		{20, 90, 50},
		{5, 99, 50},      // nothing qualifies: the median is all there is
		{100000, 90, 90}, // never above the workload's fixed percentile
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.want); got != c.got {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
	if b := beyond(1000, 99); b != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", b)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(sorted, 90); p != 9 {
		t.Errorf("p90 of 1..10 = %g, want 9", p)
	}
	if p := percentile(sorted, 50); p != 5 {
		t.Errorf("p50 of 1..10 = %g, want 5", p)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 12, 11, 15, 14, 13, 19, 17, 16, 18}
	q1, q3 := quartiles(v)
	if q1 != 11.75 || q3 != 17.25 { // statistics.quantiles(v, n=4) == [11.75, 14.5, 17.25]
		t.Fatalf("quartiles = %g, %g; want 11.75, 17.25", q1, q3)
	}
	if m := median(v); m != 14.5 {
		t.Fatalf("median = %g", m)
	}
}

// A span's self time is its duration minus what its children cover;
// overlapping children must not be subtracted twice, and a child that
// outlives its parent only counts inside it.
func TestSpanSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "pass", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out by 20
		{Name: "a1", Start: 15, End: 20, Parent: 1}, // grandchild: a's business only
		{Name: "leaf", Start: 200, End: 250, Parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 50}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestLaneNestsSpans(t *testing.T) {
	l := newLane("t", true, 8)
	outer := l.begin("analysis.pass")
	inner := l.begin("analysis.read")
	l.stage(inner)
	l.end(outer, 4)
	if len(l.spans) != 2 || l.spans[1].Parent != 0 || l.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", l.spans)
	}
	if len(l.samples) != 1 {
		t.Fatalf("an outer call is one sample, got %d", len(l.samples))
	}
}

// tracedCounts runs one rep of a small hepnos_c7 and returns the
// per-layer counts that must repeat exactly.
func tracedCounts(t *testing.T, seed uint64) (naEvents, rpcsPerEvent, traceEvents float64) {
	t.Helper()
	w := captureWorkload()
	if err := w.setup(seed, 0); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	before := w.live().counters()
	c, err := w.rep()
	if err != nil || c.failed != 0 {
		t.Fatalf("rep: %+v %v", c, err)
	}
	if err := w.live().quiesce(); err != nil {
		t.Fatal(err)
	}
	after := w.live().counters()
	m := map[string]float64{}
	counterMetrics(m, before, after, after, float64(c.ops))
	splitMetrics(m, w.live().profile(), float64(c.ops))
	return m["na.events_per_op"], m["services.hepnos.rpcs_per_event"], m["core.trace_events_per_op"]
}

func TestSameSeedSameCounts(t *testing.T) {
	a1, a2, a3 := tracedCounts(t, 7)
	b1, b2, b3 := tracedCounts(t, 7)
	if a1 != b1 || a2 != b2 || a3 != b3 {
		t.Fatalf("counts differ between two runs of one seed: (%g %g %g) vs (%g %g %g)", a1, a2, a3, b1, b2, b3)
	}
	if a2 != 1 {
		t.Fatalf("hepnos_c7 ships one RPC per event, got %g", a2)
	}
	if a1 <= 0 || a3 <= 0 {
		t.Fatalf("counts must be positive: %g %g", a1, a3)
	}
}

// smallKV is sdskv_mixed or sdskv_multi shrunk to a fraction of a
// second: few keys, one short rep.
func smallKV(multi bool) *kvWorkload {
	w := newKVWorkload("test", multi)
	w.keys = 1024
	w.sp.repOps = kvIssuers * 2 * kvMultiKeys
	w.logs = []*[]string{new([]string), new([]string)}
	return w
}

func opSequence(t *testing.T, seed uint64, multi bool) []string {
	t.Helper()
	w := smallKV(multi)
	if err := w.setup(seed, 0); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	c, err := w.rep()
	if err != nil || c.failed != 0 {
		t.Fatalf("rep: %+v %v", c, err)
	}
	if v, err := w.verify(); err != nil || v.failed != 0 {
		t.Fatalf("verify: %+v %v", v, err)
	}
	return append(append([]string(nil), *w.logs[0]...), *w.logs[1]...)
}

func TestSeedFixesOpSequence(t *testing.T) {
	a := opSequence(t, 3, false)
	b := opSequence(t, 3, false)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two op sequences")
	}
	c := opSequence(t, 4, false)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same op sequence")
	}
	puts, gets := 0, 0
	for _, op := range a {
		if strings.HasPrefix(op, "put ") {
			puts++
		} else {
			gets++
		}
	}
	if puts == 0 || gets == 0 {
		t.Fatalf("mix is one-sided: %d puts, %d gets", puts, gets)
	}
	if m := opSequence(t, 3, true); len(m) == 0 || !strings.HasPrefix(m[0], "putmulti ") {
		t.Fatalf("sdskv_multi sequence = %v", m)
	}
}

func TestDifferentSeedDifferentKeys(t *testing.T) {
	same := 0
	for i := 0; i < 256; i++ {
		if bytes.Equal(kvKey(1, i), kvKey(2, i)) {
			same++
		}
		if !bytes.Equal(kvKey(1, i), kvKey(1, i)) {
			t.Fatal("a seed must fix its keys")
		}
	}
	if same != 0 {
		t.Fatalf("%d of 256 keys are shared between two seeds", same)
	}
}

// A wrong read-back must count as a failed op, which is what makes the
// command exit non-zero.
func TestWrongReadBackFails(t *testing.T) {
	flip := func(b []byte) {
		if len(b) > 0 {
			b[len(b)-1] ^= 0xff
		}
	}

	kv := smallKV(false)
	if err := kv.setup(5, 0); err != nil {
		t.Fatal(err)
	}
	kv.corrupt = flip
	c, err := kv.rep()
	kv.teardown()
	if err != nil {
		t.Fatal(err)
	}
	if c.failed == 0 {
		t.Fatal("sdskv: corrupted Get values were accepted")
	}

	h := captureWorkload()
	if err := h.setup(5, 0); err != nil {
		t.Fatal(err)
	}
	if c, err := h.rep(); err != nil || c.failed != 0 {
		t.Fatalf("hepnos: rep: %+v %v", c, err)
	}
	good, err := h.verify()
	if err != nil || good.failed != 0 {
		t.Fatalf("hepnos: clean verify: %+v %v", good, err)
	}
	h.corrupt = flip
	bad, err := h.verify()
	h.teardown()
	if err != nil {
		t.Fatal(err)
	}
	if bad.failed != hepnosLoaders*readBacks {
		t.Fatalf("hepnos: %d of %d corrupted read-backs were caught", bad.failed, hepnosLoaders*readBacks)
	}
}

// BENCHMARK.json at the root must say what the harness prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from `symbench -describe`; regenerate it")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("bad metric %+v", d)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, name := range workloadNames {
		w, _ := newWorkload(name)
		if why := w.spec().why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", name, len(why))
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	set := func(allocs, opsPerS float64, failed int) *resultSet {
		wr := &workloadResult{EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}, Failed: []int{failed}}
		for _, d := range append(append([]metricDef(nil), endToEnd...), hostTimed...) {
			wr.EndToEnd[d.Name] = &series{Unit: d.Unit, Values: []float64{100, 101, 99}}
		}
		wr.EndToEnd["allocs_per_op"] = &series{Unit: "count", Values: []float64{allocs, allocs * 1.001, allocs * 0.999}}
		wr.EndToEnd["ops_per_s"] = &series{Unit: "ops/s", Values: []float64{opsPerS, opsPerS * 1.01, opsPerS * 0.99}}
		s := &resultSet{Workloads: map[string]*workloadResult{}}
		for _, name := range workloadNames {
			s.Workloads[name] = wr
		}
		return s
	}
	var out bytes.Buffer
	if code := compareLoaded(&out, set(50, 1000, 0), set(50.5, 1000, 0)); code != 0 {
		t.Fatalf("1%% more allocations are within the bound, got exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareLoaded(&out, set(50, 1000, 0), set(52, 1000, 0)); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("4%% more allocations must fail, got exit %d:\n%s", code, out.String())
	}
	if code := compareLoaded(&out, set(50, 1000, 0), set(40, 1000, 0)); code != 0 {
		t.Fatalf("a gain must pass, got exit %d", code)
	}
	out.Reset()
	if code := compareLoaded(&out, set(50, 1000, 0), set(50, 600, 0)); code != 0 || !strings.Contains(out.String(), "+40.0%") {
		t.Fatalf("a host-timed metric is reported, not gated; got exit %d:\n%s", code, out.String())
	}
	if code := compareLoaded(&out, set(50, 1000, 0), set(50, 1000, 3)); code != 1 {
		t.Fatalf("new failed ops must fail, got exit %d", code)
	}
}

// -all reads a run back from what the run printed.
func TestParseRun(t *testing.T) {
	out := "# sdskv_mixed seed=1 traced=false\n" +
		"setup_s                                           0.178691325 s\n" +
		"ops_per_s                                          31967.2762 ops/s\n" +
		"# call_samples = 221184\n" +
		"# ops_per_s by rep = [31727.1 32611.3]\n" +
		"# failed_frac = 0 (0 of 250880)\n" +
		`{"correct":true,"attempted":250880,"failed":0,"metrics":{"setup_s":{"value":0.178691325,"unit":"s"}}}` + "\n"
	run, err := parseRun([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if !run.line.Correct || run.line.Attempted != 250880 || run.line.Metrics["setup_s"].Value != 0.178691325 {
		t.Fatalf("result line = %+v", run.line)
	}
	want := map[string]metricValue{"setup_s": {0.178691325, "s"}, "ops_per_s": {31967.2762, "ops/s"}}
	if !reflect.DeepEqual(run.metrics, want) {
		t.Fatalf("metrics = %v", run.metrics)
	}
	if !reflect.DeepEqual(run.notes, map[string]float64{"call_samples": 221184}) {
		t.Fatalf("notes = %v", run.notes)
	}
	if _, err := parseRun([]byte("panic: boom\n")); err == nil {
		t.Fatal("output without a result line must be an error")
	}
}
