package experiments

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"symbiosys/internal/core"
	"symbiosys/internal/margo"
)

// scrape fetches one /metrics exposition from addr ("" on error).
func scrape(addr string) (string, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /metrics = %d", resp.StatusCode)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<22), 1<<22)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	return sb.String(), sc.Err()
}

// assertWellFormedExposition checks every line is a comment or a
// "name{labels} value" sample with a declared TYPE.
func assertWellFormedExposition(t *testing.T, body string) {
	t.Helper()
	types := make(map[string]string)
	n := 0
	for _, line := range strings.Split(body, "\n") {
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
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if types[name] == "" && types[base] == "" {
			t.Fatalf("sample %q has no TYPE declaration", line)
		}
		n++
	}
	if n == 0 {
		t.Fatal("exposition has no samples")
	}
}

var updateFamilies = flag.Bool("update", false, "rewrite testdata/metric_families.txt from TestSmokeMetrics' scrape")

// familiesGolden lists every /metrics family a C1 run exposes mid-run,
// sorted, one per line.
const familiesGolden = "testdata/metric_families.txt"

// checkMetricFamilies compares the sorted set of `# TYPE` family names
// in body with familiesGolden (or rewrites it under -update), failing on
// any family that went missing or appeared.
func checkMetricFamilies(t *testing.T, body string) {
	t.Helper()
	var fams []string
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams = append(fams, f[2])
		}
	}
	sort.Strings(fams)
	got := strings.Join(fams, "\n") + "\n"
	if *updateFamilies {
		if err := os.MkdirAll(filepath.Dir(familiesGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(familiesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(familiesGolden)
	if err != nil {
		t.Fatalf("read %s (run `go test ./internal/experiments -run TestSmokeMetrics -update` to create): %v", familiesGolden, err)
	}
	want := make(map[string]bool)
	for _, f := range strings.Fields(string(raw)) {
		want[f] = true
	}
	for _, f := range fams {
		if !want[f] {
			t.Errorf("/metrics family %s is not in %s", f, familiesGolden)
		}
		delete(want, f)
	}
	for f := range want {
		t.Errorf("/metrics family %s in %s is missing from the scrape", f, familiesGolden)
	}
}

// freePort reserves then releases a loopback port for the run to bind.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestSmokeMetrics is the `make smoke-metrics` target: a scaled C1 run
// with live telemetry, scraped WHILE the workload executes, asserting
// the exposition is well-formed and carries the signals the live plane
// promises — per-pool blocked gauges, num_ofi_events_read, trace-drop
// counters, and at least one per-callpath latency histogram whose
// percentiles agree with the end-of-run profile dump within one bucket
// width.
func TestSmokeMetrics(t *testing.T) {
	cfg := scaled(C1, 16)
	cfg.TotalClients = 2
	cfg.ClientsPerNode = 2
	addr := freePort(t)

	type outcome struct {
		res *HEPnOSResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunHEPnOS(cfg, addr, "")
		done <- outcome{res, err}
	}()

	// Scrape during the run: retry until the endpoint is up and the
	// exposition carries a callpath histogram (RPC traffic observed).
	var body string
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		b, err := scrape(addr)
		if err == nil {
			body = b
			if strings.Contains(b, "symbiosys_callpath_latency_seconds_bucket") {
				break
			}
		}
		select {
		case out := <-done:
			// Run finished before we saw a histogram; fail below on the
			// static checks if the last scrape was empty.
			if out.err != nil {
				t.Fatal(out.err)
			}
			done <- out
			deadline = time.Now() // stop retrying
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	if body == "" {
		t.Fatal("never scraped a live exposition")
	}
	assertWellFormedExposition(t, body)
	checkMetricFamilies(t, body)
	for _, want := range []string{
		"symbiosys_pool_blocked{",
		"symbiosys_pvar_num_ofi_events_read{",
		"symbiosys_trace_dropped{",
		"symbiosys_sink_errors{",
		"symbiosys_callpath_latency_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("live exposition missing %q", want)
		}
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.MetricsAddr != addr {
		t.Fatalf("result metrics addr = %q, want %q", out.res.MetricsAddr, addr)
	}

	// Percentile cross-check: the dominant callpath's percentiles from
	// the merged profile must sit inside (± one width of) the histogram
	// bucket the exposition renders them from.
	rows := out.res.Profile.DominantCallpaths(1)
	if len(rows) == 0 {
		t.Fatal("run produced no target callpaths")
	}
	row := rows[0]
	for _, p := range []float64{50, 95, 99} {
		est := row.Percentile(p)
		b := core.HistBucket(uint64(est))
		lo, hi := core.HistBucketBounds(b)
		width := float64(hi - lo)
		if hi == math.MaxUint64 {
			width = float64(row.MaxNanos - lo)
		}
		if float64(est) < float64(lo)-width || float64(est) > float64(hi)+width {
			t.Errorf("p%v = %v outside bucket %d [%d,%d) ± one width", p, est, b, lo, hi)
		}
	}
}

// TestClusterTelemetryLifecycle checks that ServeTelemetry without an
// address leaves telemetry off, that with one every later process is
// read and scrapeable, and that Shutdown closes the endpoint.
func TestClusterTelemetryLifecycle(t *testing.T) {
	cl := NewCluster(DefaultFabric())
	if addr, err := cl.ServeTelemetry(""); addr != "" || err != nil || cl.MetricsText() != "" {
		t.Fatalf("ServeTelemetry without an address = %q, %v; metrics %q", addr, err, cl.MetricsText())
	}
	addr, err := cl.ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cl.Start(ProcessOptions{Mode: margo.ModeClient, Node: "n0",
		Name: "c0", Stage: core.StageFull})
	if err != nil {
		t.Fatal(err)
	}
	if text := cl.MetricsText(); !strings.Contains(text, `symbiosys_cq_depth{instance="`+inst.Addr()+`"}`) {
		t.Fatalf("MetricsText does not read the started process:\n%s", text)
	}
	resp, err := http.Get("http://" + addr + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := cl.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("metrics endpoint still serving after Shutdown")
	}
}
