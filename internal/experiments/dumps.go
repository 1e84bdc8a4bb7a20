package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"symbiosys/internal/core"
)

// The names of a run's dump files: WriteDumps's profile dumps (JSON) and
// trace dumps (core's binary trace dump format, not JSON; readers go by
// content, the suffix only tells the two apart), and the streams a
// core.NewJSONLTraceSink writes.
const (
	profileDumpSuffix = ".profile.json"
	traceDumpSuffix   = ".trace.bin"
	traceStreamSuffix = ".trace.jsonl"
)

// WriteDumps persists per-process profile and trace dumps into dir as
// <entity>.profile.json and <entity>.trace.bin — the on-disk layout
// ReadDumps, and so the sym tool, reads. Two dumps of a kind whose
// entities sanitize to one file name (a/b_c and a_b/c) fail the write
// rather than overwrite each other.
func WriteDumps(dir string, profiles []*core.ProfileDump, traces []*core.TraceDump) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	written := map[string]string{} // file name: the entity dumped there
	fileOf := func(entity, suffix string) (string, error) {
		name := sanitize(entity) + suffix
		if other, ok := written[name]; ok {
			return "", fmt.Errorf("experiments: the dumps of %q and %q would both be %s", other, entity, name)
		}
		written[name] = entity
		return filepath.Join(dir, name), nil
	}
	for _, p := range profiles {
		path, err := fileOf(p.Entity, profileDumpSuffix)
		if err == nil {
			err = writeDump(path, func(f *os.File) error { return core.WriteProfile(f, p) })
		}
		if err != nil {
			return err
		}
	}
	for _, t := range traces {
		path, err := fileOf(t.Entity(), traceDumpSuffix)
		if err == nil {
			err = writeDump(path, func(f *os.File) error { return core.WriteTrace(f, t) })
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadDumps reads every dump a run left in dir, in file name order: the
// <entity>.profile.json and <entity>.trace.bin files WriteDumps writes,
// and the <entity>.trace.jsonl streams of JSONL sinks (a stream carries
// no drop count: its sink saw every event). A stream cut off mid-line —
// a writer killed by SIGINT or a crash — keeps the events before the cut
// and adds a warning instead of failing the read. A directory holding
// none of the three yields none.
func ReadDumps(dir string) (profiles []*core.ProfileDump, traces []*core.TraceDump, warnings []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range entries {
		name, path := e.Name(), filepath.Join(dir, e.Name())
		switch {
		case strings.HasSuffix(name, profileDumpSuffix):
			p, err := readFile(path, core.ReadProfile)
			if err != nil {
				return nil, nil, nil, err
			}
			profiles = append(profiles, p)
		case strings.HasSuffix(name, traceDumpSuffix):
			t, err := readFile(path, core.ReadTrace)
			if err != nil {
				return nil, nil, nil, err
			}
			traces = append(traces, t)
		case strings.HasSuffix(name, traceStreamSuffix):
			var truncated int
			evs, err := readFile(path, func(r io.Reader) (evs []core.Event, err error) {
				evs, truncated, err = core.ReadEventsJSONL(r)
				return evs, err
			})
			if errors.Is(err, core.ErrTraceStreamVersion) {
				// err names the file, the version it holds and the one this build reads.
				return nil, nil, nil, fmt.Errorf("%w; re-export it with this build (core.NewJSONLTraceSink), streams of other versions are not read", err)
			}
			if err != nil {
				return nil, nil, nil, err
			}
			if truncated > 0 {
				warnings = append(warnings, fmt.Sprintf(
					"%s: discarded truncated final line (stream cut off mid-write); %d events kept", path, len(evs)))
			}
			traces = append(traces, core.NewTraceDump(strings.TrimSuffix(name, traceStreamSuffix), 0, 0, evs))
		}
	}
	return profiles, traces, warnings, nil
}

// readFile opens path and decodes it with read, naming the file in an error.
func readFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := read(f)
	if err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

func writeDump(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// sanitize turns a fabric address into a filesystem-safe name.
func sanitize(entity string) string {
	return strings.NewReplacer("/", "_", ":", "_").Replace(entity)
}
