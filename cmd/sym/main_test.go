package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"symbiosys/internal/experiments"
)

var (
	dumpsOnce sync.Once
	dumpsDir  string
	dumpsErr  error
)

// dumps is the directory one small HEPnOS run (C2 scaled down to two
// clients) wrote its dumps to, written once for every test here.
func dumps(t *testing.T) string {
	t.Helper()
	dumpsOnce.Do(func() {
		cfg := experiments.C2.Scaled(32)
		cfg.TotalClients, cfg.ClientsPerNode, cfg.BatchSize = 2, 2, 8
		var root string
		if root, dumpsErr = os.MkdirTemp("", "sym-test-dumps"); dumpsErr != nil {
			return
		}
		dumpsDir = filepath.Join(root, cfg.Name)
		_, dumpsErr = experiments.RunHEPnOS(cfg, "", root)
	})
	if dumpsErr != nil {
		t.Fatal(dumpsErr)
	}
	return dumpsDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if dumpsDir != "" {
		os.RemoveAll(filepath.Dir(dumpsDir))
	}
	os.Exit(code)
}

// sym runs one command line in-process and returns its stdout, failing
// the test unless it exits with want.
func sym(t *testing.T, want int, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != want {
		t.Fatalf("sym %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
			strings.Join(args, " "), code, want, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func TestProfNamesTheDominantCallpath(t *testing.T) {
	out := sym(t, 0, "prof", "-dir", dumps(t))
	if !strings.Contains(out, "#1  sdskv_put_packed_rpc") {
		t.Fatalf("prof does not rank sdskv_put_packed_rpc first:\n%s", out)
	}
}

func TestStatsPrintsPoolRows(t *testing.T) {
	out := sym(t, 0, "stats", "-dir", dumps(t))
	if !strings.Contains(out, "runnable max/mean") {
		t.Fatalf("stats has no pool columns:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 4 && strings.HasPrefix(f[0], "server-node") && strings.Contains(f[3], "/") {
			return
		}
	}
	t.Fatalf("stats has no server pool row:\n%s", out)
}

func TestStatsTables(t *testing.T) {
	if out := sym(t, 0, "stats", "-classes"); !strings.Contains(out, "HIGHWATERMARK") {
		t.Errorf("stats -classes:\n%s", out)
	}
	if out := sym(t, 0, "stats", "-pvars"); !strings.Contains(out, "num_ofi_events_read") {
		t.Errorf("stats -pvars:\n%s", out)
	}
}

// summary parses the request lines of `sym trace`: IDs and span counts
// in listed order.
func summary(t *testing.T, out string) (ids []uint64, spans []int) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || f[0] != "request" {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(f[1], ":"), 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		n, err := strconv.Atoi(f[4])
		if err != nil {
			t.Fatal(err)
		}
		ids, spans = append(ids, id), append(spans, n)
	}
	if len(ids) == 0 {
		t.Fatalf("no request lines:\n%s", out)
	}
	return ids, spans
}

func TestTraceListsRequestsInStableOrder(t *testing.T) {
	out := sym(t, 0, "trace", "-dir", dumps(t), "-n", "50")
	ids, spans := summary(t, out)
	for i := 1; i < len(ids); i++ {
		if spans[i] > spans[i-1] || spans[i] == spans[i-1] && ids[i] <= ids[i-1] {
			t.Fatalf("row %d (%#x, %d spans) out of order after %#x, %d spans:\n%s",
				i, ids[i], spans[i], ids[i-1], spans[i-1], out)
		}
	}
	for range 3 {
		if again := sym(t, 0, "trace", "-dir", dumps(t), "-n", "50"); again != out {
			t.Fatalf("two listings differ:\n%s\nthen:\n%s", out, again)
		}
	}
}

func TestTraceRequestPathAndZipkin(t *testing.T) {
	dir := dumps(t)
	ids, _ := summary(t, sym(t, 0, "trace", "-dir", dir))
	req := "0x" + strconv.FormatUint(ids[0], 16)

	if out := sym(t, 0, "trace", "-dir", dir, "-req", req, "-path"); !strings.Contains(out, "critical path: ") ||
		!strings.Contains(out, "sdskv_put_packed_rpc") {
		t.Fatalf("trace -req %s -path:\n%s", req, out)
	}

	zipkin := filepath.Join(t.TempDir(), "req.json")
	sym(t, 0, "trace", "-dir", dir, "-req", req, "-zipkin", zipkin)
	b, err := os.ReadFile(zipkin)
	if err != nil {
		t.Fatal(err)
	}
	var spans []map[string]any
	if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("zipkin file is not a JSON span list (%v):\n%s", err, b)
	}
}

func TestDiffOfARunWithItselfFlagsNothing(t *testing.T) {
	dir := dumps(t)
	out := sym(t, 0, "diff", "-before", dir, "-dir", dir)
	if strings.Contains(out, " !") || !strings.Contains(out, "no significant per-segment regression localized") {
		t.Fatalf("a run diffed against itself flags a segment:\n%s", out)
	}
}

func TestBadCommandLinesExit2(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"prof"},
		{"stats"},
		{"trace"},
		{"diff", "-before", "x"},
		{"prof", "-dir", "x", "-o", "pdf"},
		{"trace", "-dir", "x", "-nosuchflag"},
	} {
		sym(t, 2, args...)
	}
}
