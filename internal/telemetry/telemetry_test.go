package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"symbiosys/internal/core"
)

// fakeSource is a scripted Source for driving the sampler without a
// full Margo stack.
type fakeSource struct {
	addr  string
	ticks atomic.Uint64
	cps   []CallpathStat
}

func (f *fakeSource) Addr() string { return f.addr }

func (f *fakeSource) TelemetrySample() Sample {
	n := f.ticks.Add(1)
	return Sample{
		UnixNanos:  int64(n) * int64(time.Second),
		CQDepth:    int(n % 7),
		EventsRead: 10 * n,
		TraceLen:   int(n),
		PVars: []PVarValue{
			{Name: "num_ofi_events_read", Counter: true, Value: 10 * n},
			{Name: "completion_queue_size", Value: n % 7},
		},
		Pools: []PoolStat{
			{Name: "handlers", Runnable: int64(n), Blocked: 2, Executed: 5 * n},
		},
	}
}

func (f *fakeSource) CallpathStats() []CallpathStat { return f.cps }

func makeCallpath() CallpathStat {
	var st core.CallStats
	st.Count = 100
	st.CumNanos = 100 * 50_000
	st.MinNanos = 10_000
	st.MaxNanos = 900_000
	st.Hist[core.HistBucket(50_000)] = 100
	return CallpathStat{Side: "target", Path: "put", Peer: "node0/c0", Stats: st}
}

func TestSeriesRingAndRates(t *testing.T) {
	s := NewSeries(Counter, 4)
	for i := 1; i <= 6; i++ {
		s.Push(int64(i)*int64(time.Second), float64(10*i))
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4 (bounded ring)", s.Len())
	}
	pts := s.Points()
	if pts[0].Value != 30 || pts[3].Value != 60 {
		t.Fatalf("window = %+v, want values 30..60", pts)
	}
	// A counter's rate is derivable from any two points of the window.
	if r := (pts[3].Value - pts[0].Value) / (float64(pts[3].UnixNanos-pts[0].UnixNanos) / 1e9); r != 10 {
		t.Fatalf("window rate = %v, want 10/s", r)
	}
}

func TestSamplerSeriesDerivation(t *testing.T) {
	src := &fakeSource{addr: "node0/s0", cps: []CallpathStat{makeCallpath()}}
	sp := NewSampler(src, Options{})
	for i := 0; i < 3; i++ {
		sp.SampleOnce()
	}
	if sp.Ticks() != 3 {
		t.Fatalf("ticks = %d, want 3", sp.Ticks())
	}
	for _, name := range []string{"events_read", "pvar/num_ofi_events_read"} {
		kind, pts, ok := sp.SeriesSnapshot(name)
		if !ok || kind != Counter || len(pts) != 3 || pts[2].Value-pts[1].Value != 10 {
			t.Fatalf("%s series = %v %v %v, want a counter stepping by 10", name, kind, pts, ok)
		}
	}
	kind, pts, ok := sp.SeriesSnapshot("pool/handlers/blocked")
	if !ok || kind != Gauge || len(pts) != 3 || pts[2].Value != 2 {
		t.Fatalf("pool blocked series = %v %v %v", kind, pts, ok)
	}
	if _, _, ok := sp.SeriesSnapshot("no_such"); ok {
		t.Fatal("unknown series reported ok")
	}
	last, ok := sp.Last()
	if !ok || last.EventsRead != 30 {
		t.Fatalf("last = %+v %v", last, ok)
	}
}

func TestSamplerStartStop(t *testing.T) {
	src := &fakeSource{addr: "node0/s0"}
	sp := NewSampler(src, Options{Interval: time.Millisecond})
	sp.Start()
	deadline := time.Now().Add(2 * time.Second)
	for sp.Ticks() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sp.Stop()
	if sp.Ticks() < 3 {
		t.Fatalf("ticks = %d, want >= 3", sp.Ticks())
	}
	n := sp.Ticks()
	time.Sleep(5 * time.Millisecond)
	if sp.Ticks() != n {
		t.Fatal("sampler kept ticking after Stop")
	}
	// Stop without Start must not hang; double Stop must be safe.
	sp2 := NewSampler(src, Options{})
	sp2.Stop()
	sp2.Stop()
}

// checkExposition parses Prometheus text exposition, asserting every
// line is a comment or a well-formed sample, and returns the samples.
func checkExposition(t *testing.T, body string) map[string]string {
	t.Helper()
	samples := make(map[string]string)
	types := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		var f float64
		if _, err := fmt.Sscanf(val, "%g", &f); err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unterminated label set: %q", line)
			}
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := types[base]; !ok && types[name] == "" {
			t.Fatalf("sample %q has no TYPE declaration", line)
		}
		samples[key] = val
	}
	return samples
}

func TestExposerMetricsAndSnapshot(t *testing.T) {
	src := &fakeSource{addr: "node0/s0", cps: []CallpathStat{makeCallpath()}}
	sp := NewSampler(src, Options{})
	sp.SampleOnce()
	sp.SampleOnce()

	ex := NewExposer()
	ex.Register(sp)
	addr, err := ex.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	body := sb.String()
	samples := checkExposition(t, body)

	for _, want := range []string{
		`symbiosys_cq_depth{instance="node0/s0"}`,
		`symbiosys_pvar_num_ofi_events_read{instance="node0/s0"}`,
		`symbiosys_pool_blocked{instance="node0/s0",pool="handlers"}`,
		`symbiosys_callpath_latency_seconds_count{instance="node0/s0",side="target",path="put",peer="node0/c0"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("missing sample %q in exposition:\n%s", want, body)
		}
	}
	// The +Inf bucket must equal the count.
	inf := `symbiosys_callpath_latency_seconds_bucket{instance="node0/s0",side="target",path="put",peer="node0/c0",le="+Inf"}`
	if samples[inf] != "100" {
		t.Errorf("+Inf bucket = %q, want 100", samples[inf])
	}

	// Histogram buckets must be cumulative and non-decreasing.
	prev := -1.0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "symbiosys_callpath_latency_seconds_bucket") {
			var v float64
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v)
			if v < prev {
				t.Fatalf("bucket counts decreased at %q", line)
			}
			prev = v
		}
	}

	snapResp, err := http.Get("http://" + addr + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer snapResp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(snapResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Instances) != 1 || snap.Instances[0].Addr != "node0/s0" {
		t.Fatalf("snapshot instances = %+v", snap.Instances)
	}
	if snap.Instances[0].Ticks != 2 {
		t.Fatalf("snapshot ticks = %d, want 2", snap.Instances[0].Ticks)
	}
	if len(snap.Instances[0].Callpaths) != 1 {
		t.Fatalf("snapshot callpaths = %+v", snap.Instances[0].Callpaths)
	}
	if _, ok := snap.Instances[0].Series["events_read"]; !ok {
		t.Fatal("snapshot missing events_read series")
	}
}

func TestHistogramPercentileMatchesProfile(t *testing.T) {
	// The histogram the exposer renders and the profile-dump percentile
	// must agree within one bucket width (the ISSUE acceptance bound).
	cp := makeCallpath()
	p95 := cp.Stats.Percentile(95)
	lo, hi := core.HistBucketBounds(core.HistBucket(uint64(p95)))
	if uint64(p95) < lo || uint64(p95) >= hi {
		t.Fatalf("p95 %v outside its own bucket [%d,%d)", p95, lo, hi)
	}
	rows := renderCallpathHistograms("i", []CallpathStat{cp})
	// Find the first bucket whose cumulative count reaches 95% of 100.
	var bucketLe float64
	for _, r := range rows {
		if !strings.Contains(r, "_bucket") || strings.Contains(r, `le="+Inf"`) {
			continue
		}
		var cum float64
		fmt.Sscanf(r[strings.LastIndexByte(r, ' ')+1:], "%g", &cum)
		if cum >= 95 {
			i := strings.Index(r, `le="`)
			fmt.Sscanf(r[i+4:], "%g", &bucketLe)
			break
		}
	}
	if bucketLe == 0 {
		t.Fatal("no bucket reaches the 95th percentile")
	}
	// The le boundary is the upper edge of the bucket holding p95.
	if got := p95.Seconds(); got > bucketLe || bucketLe > 2*float64(hi)/1e9 {
		t.Fatalf("p95 %v vs bucket le %v: disagree by more than a bucket", got, bucketLe)
	}
}

// TestExposerCloseReleasesServer: Close must actually shut the HTTP
// server down — the listener stops accepting, the serve goroutine has
// exited by the time Close returns, the port is immediately reusable,
// and a second Close is a no-op. Regression test for the exposer
// leaking its server until process exit.
func TestExposerCloseReleasesServer(t *testing.T) {
	src := &fakeSource{addr: "node0/s0"}
	sp := NewSampler(src, Options{})
	sp.SampleOnce()

	ex := NewExposer()
	ex.Register(sp)
	addr, err := ex.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape before close: %v", err)
	}
	resp.Body.Close()

	if err := ex.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("scrape succeeded after Close")
	}
	// The goroutine released the port: rebinding the same address works.
	ex2 := NewExposer()
	ex2.Register(sp)
	if _, err := ex2.Serve(addr); err != nil {
		t.Fatalf("rebind %s after close: %v", addr, err)
	}
	defer ex2.Close()

	// Idempotent: closing again (or an exposer that never served) is a
	// clean no-op.
	if err := ex.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := NewExposer().Close(); err != nil {
		t.Fatalf("close without serve: %v", err)
	}
}
