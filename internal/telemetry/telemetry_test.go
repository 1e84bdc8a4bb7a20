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

// fakeSource is a scripted Source: every read advances its counters,
// so two scrapes see two different samples.
type fakeSource struct {
	addr  string
	reads atomic.Uint64
	cps   []CallpathStat
}

func (f *fakeSource) Addr() string { return f.addr }

func (f *fakeSource) TelemetrySample() Sample {
	n := f.reads.Add(1)
	return Sample{
		UnixNanos:  int64(n) * int64(time.Second),
		CQDepth:    int(n % 7),
		EventsRead: 10 * n,
		TraceLen:   int(n),
		Draining:   true,
		PVars: []PVarValue{
			{Name: "num_ofi_events_read", Counter: true, Value: 10 * n},
			{Name: "completion_queue_size", Value: n % 7},
		},
		Pools: []PoolStat{
			{Name: "handlers", Runnable: int64(n), Blocked: 2, Executed: 5 * n},
		},
		BatchFlushReasons: map[string]uint64{"size": 3, "deadline": 1, "drain": n},
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

// TestSampleRows checks the rows one read of a Source renders into: each
// name once, with its kind and value, the pvar/ and pool/ families, and
// the flush reasons in sorted order.
func TestSampleRows(t *testing.T) {
	src := &fakeSource{addr: "node0/s0"}
	src.TelemetrySample()
	rows := sampleRows(src.TelemetrySample()) // the second read: n = 2
	type kv struct {
		kind Kind
		v    float64
	}
	got := make(map[string]kv)
	var reasons []string
	for _, r := range rows {
		if _, dup := got[r.name]; dup {
			t.Fatalf("row %s rendered twice", r.name)
		}
		got[r.name] = kv{r.kind, r.v}
		if strings.HasPrefix(r.name, "batch_flush_reason/") {
			reasons = append(reasons, strings.TrimPrefix(r.name, "batch_flush_reason/"))
		}
	}
	// 44 fixed rows, 3 flush reasons, 2 PVARs, 4 rows for the one pool.
	if len(rows) != 53 {
		t.Errorf("%d rows, want 53", len(rows))
	}
	for name, want := range map[string]kv{
		"cq_depth":                     {Gauge, 2},
		"events_read":                  {Counter, 20},
		"trace_len":                    {Gauge, 2},
		"overload_draining":            {Gauge, 1},
		"rpc_retries_total":            {Counter, 0},
		"batch_flush_reason/drain":     {Counter, 2},
		"pvar/num_ofi_events_read":     {Counter, 20},
		"pvar/completion_queue_size":   {Gauge, 2},
		"pool/handlers/runnable":       {Gauge, 2},
		"pool/handlers/blocked":        {Gauge, 2},
		"pool/handlers/created":        {Counter, 0},
		"pool/handlers/executed":       {Counter, 10},
		"batch_window_occupancy_hwm":   {Gauge, 0},
		"overload_breaker_trips_total": {Counter, 0},
	} {
		if r, ok := got[name]; !ok || r != want {
			t.Errorf("row %s = %+v (present %v), want %+v", name, r, ok, want)
		}
	}
	if strings.Join(reasons, ",") != "deadline,drain,size" {
		t.Errorf("flush reasons in order %v, want deadline,drain,size", reasons)
	}
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

// getMetrics scrapes /metrics from addr.
func getMetrics(t *testing.T, addr string) string {
	t.Helper()
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
	return sb.String()
}

func TestExposerMetricsAndSnapshot(t *testing.T) {
	src := &fakeSource{addr: "node0/s0", cps: []CallpathStat{makeCallpath()}}
	ex := NewExposer()
	ex.Register(src)
	addr, err := ex.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	body := getMetrics(t, addr)
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
	// Each scrape reads the source afresh: the first saw one read, the
	// next sees a second.
	ev := `symbiosys_events_read{instance="node0/s0"}`
	if samples[ev] != "10" {
		t.Errorf("%s = %q on the first scrape, want 10", ev, samples[ev])
	}
	if again := checkExposition(t, getMetrics(t, addr)); again[ev] != "20" {
		t.Errorf("%s = %q on the second scrape, want 20", ev, again[ev])
	}
	reason := `symbiosys_batch_flushes_by_reason_total{instance="node0/s0",reason="size"}`
	if samples[reason] != "3" {
		t.Errorf("%s = %q, want 3", reason, samples[reason])
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
	if last := snap.Instances[0].Last; last.EventsRead != 30 || last.Pools[0].Name != "handlers" {
		t.Fatalf("snapshot sample = %+v, want the third read", last)
	}
	if len(snap.Instances[0].Callpaths) != 1 {
		t.Fatalf("snapshot callpaths = %+v", snap.Instances[0].Callpaths)
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
	ex := NewExposer()
	ex.Register(src)
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
	ex2.Register(src)
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
