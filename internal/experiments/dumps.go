package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"symbiosys/internal/core"
)

// TraceDumpSuffix ends the names of the trace dumps WriteDumps writes. They are in
// core's binary trace dump format, not JSON; readers go by content, the
// suffix only tells a directory's trace dumps from its profile dumps.
const TraceDumpSuffix = ".trace.bin"

// WriteDumps persists per-process profile and trace dumps into dir as
// <entity>.profile.json and <entity>.trace.bin — the on-disk layout
// the symprof / symtrace / symstats tools ingest.
func WriteDumps(dir string, profiles []*core.ProfileDump, traces []*core.TraceDump) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, p := range profiles {
		path := filepath.Join(dir, sanitize(p.Entity)+".profile.json")
		if err := writeDump(path, func(f *os.File) error { return core.WriteProfile(f, p) }); err != nil {
			return err
		}
	}
	for _, t := range traces {
		path := filepath.Join(dir, sanitize(t.Entity)+TraceDumpSuffix)
		if err := writeDump(path, func(f *os.File) error { return core.WriteTrace(f, t) }); err != nil {
			return err
		}
	}
	return nil
}

// ReadTraceDumps reads back every trace dump WriteDumps left in dir, in
// file name order; a directory holding none yields none.
func ReadTraceDumps(dir string) ([]*core.TraceDump, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+TraceDumpSuffix))
	if err != nil {
		return nil, err
	}
	dumps := make([]*core.TraceDump, 0, len(paths))
	for _, path := range paths {
		d, err := ReadTraceDump(path)
		if err != nil {
			return nil, err
		}
		dumps = append(dumps, d)
	}
	return dumps, nil
}

// ReadTraceDump reads one trace dump file, whatever its name.
func ReadTraceDump(path string) (*core.TraceDump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := core.ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
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
