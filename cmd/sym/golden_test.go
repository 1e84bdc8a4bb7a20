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
	const req = "0x0000000500000001"
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"prof", []string{"prof"}},
		{"stats", []string{"stats"}},
		{"trace", []string{"trace", "-n", "20"}},
		{"trace_flame", []string{"trace", "-flame"}},
		{"trace_req", []string{"trace", "-req", req, "-path", "-gantt"}},
		{"trace_zipkin", []string{"trace", "-req", req, "-zipkin", "ZIPKIN"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			zipkin := filepath.Join(t.TempDir(), "req.json")
			args := append([]string{tc.args[0], "-dir", fixtureDir}, tc.args[1:]...)
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
