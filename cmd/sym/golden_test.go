package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the fixture dumps")

// fixtureDir holds the dumps of one small C7 run, written by
// `hepnos-bench -config C7 -scale 64 -out`: two loaders, four HEPnOS
// servers, 256 single-event requests.
const fixtureDir = "testdata/c7"

// runsDir holds the dumps of three runs whose requests are not one hop
// each, written with `-scale 64 -out` (the floor): testdata/runs/mobject
// by `hepnos-bench -figure 5` (ior over Mobject, depth-3 nested forwards
// of one request ID, the same RPC called more than once per handler),
// testdata/runs/chaos-faulted by `-run chaos -config C7` (dropped
// requests, failed and retried attempts) and testdata/runs/batch-w8 by
// `-run batch` (coalesced members sharing batch IDs, window waits).
const runsDir = "testdata/runs"

// generatedLine is the report header's time stamp, the one part of a
// report that differs from run to run.
var generatedLine = regexp.MustCompile(`(?m)^generated: .*$`)

// TestGoldenOutputOverFixedDumps pins what sym prints over a fixed dump
// directory, byte for byte: a change to the analysis plane must leave
// every report, summary, path, chart and Zipkin export as it was. Each
// golden holds stdout, then stderr, then the Zipkin file if one was
// written; `go test ./cmd/sym -run TestGoldenOutputOverFixedDumps
// -update` rewrites them.
func TestGoldenOutputOverFixedDumps(t *testing.T) {
	const req, nested = "0x0000000500000001", "0x0000000200000001"
	type golden struct {
		name, dir string
		args      []string
	}
	cases := []golden{
		{"prof", fixtureDir, []string{"prof"}},
		{"stats", fixtureDir, []string{"stats"}},
		{"trace", fixtureDir, []string{"trace", "-n", "20"}},
		{"trace_flame", fixtureDir, []string{"trace", "-flame"}},
		{"trace_req", fixtureDir, []string{"trace", "-req", req, "-path", "-gantt"}},
		{"trace_zipkin", fixtureDir, []string{"trace", "-req", req, "-zipkin", "ZIPKIN"}},
		{"mobject_req", runsDir + "/mobject", []string{"trace", "-req", nested, "-path", "-gantt", "-zipkin", "ZIPKIN"}},
	}
	for _, run := range []string{"mobject", "chaos-faulted", "batch-w8"} {
		cases = append(cases,
			golden{run + "_stats", runsDir + "/" + run, []string{"stats"}},
			golden{run + "_trace", runsDir + "/" + run, []string{"trace", "-n", "20"}},
			golden{run + "_trace_flame", runsDir + "/" + run, []string{"trace", "-flame"}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			zipkin := filepath.Join(t.TempDir(), "req.json")
			args := append([]string{tc.args[0], "-dir", tc.dir}, tc.args[1:]...)
			for i, a := range args {
				if a == "ZIPKIN" {
					args[i] = zipkin
				}
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("sym %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
			}
			var got bytes.Buffer
			got.Write(generatedLine.ReplaceAll(stdout.Bytes(), []byte("generated: GOLDEN")))
			got.WriteString("--- stderr ---\n")
			got.Write(stderr.Bytes())
			if b, err := os.ReadFile(zipkin); err == nil {
				got.WriteString("--- zipkin ---\n")
				got.Write(b)
			}
			out := bytes.ReplaceAll(got.Bytes(), []byte(zipkin), []byte("ZIPKIN"))

			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("sym %s drifted from %s.\n--- got ---\n%s\n--- want ---\n%s",
					strings.Join(tc.args, " "), path, out, want)
			}
		})
	}
}
