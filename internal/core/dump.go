package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// ProfileDump is the serialized per-process callpath profile, the unit
// the SYMBIOSYS profile summary script ingests (one per process in the
// paper; the analysis package merges them globally).
type ProfileDump struct {
	Entity  string            `json:"entity"`
	PID     uint32            `json:"pid"`
	Stage   string            `json:"stage"`
	Started time.Time         `json:"started"`
	Names   map[uint16]string `json:"names"`
	// TraceDropped surfaces silent trace-buffer truncation alongside the
	// profile so offline analysis can flag incomplete traces.
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
	// PVars carries the process's library-global performance-variable
	// totals at dump time (requests shed, deadline expiries, breaker
	// trips, retries, ...), when the owning layer installed a snapshot
	// provider (Profiler.SetPVarSnapshot).
	PVars  map[string]uint64 `json:"pvars,omitempty"`
	Origin []DumpEntry       `json:"origin"`
	Target []DumpEntry       `json:"target"`
}

// DumpEntry is one (callpath, peer) row of a profile dump.
type DumpEntry struct {
	BC    uint64    `json:"breadcrumb"`
	Peer  string    `json:"peer"`
	Stats CallStats `json:"stats"`
}

func (e *DumpEntry) less(o *DumpEntry) bool {
	if e.BC != o.BC {
		return e.BC < o.BC
	}
	return e.Peer < o.Peer
}

// WriteProfile serializes a dump as JSON.
func WriteProfile(w io.Writer, d *ProfileDump) error {
	enc := json.NewEncoder(w)
	return enc.Encode(d)
}

// ReadProfile parses one JSON profile dump.
func ReadProfile(r io.Reader) (*ProfileDump, error) {
	var d ProfileDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("core: parse profile dump: %w", err)
	}
	return &d, nil
}

// TraceDump is the serialized per-process trace buffer. WriteTrace and
// ReadTrace (tracedump.go) carry it to disk and back in the binary
// trace dump format.
type TraceDump struct {
	Entity  string  `json:"entity"`
	PID     uint32  `json:"pid"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// DumpTrace captures a profiler's merged trace buffers for offline
// analysis; events come out ordered by timestamp then Lamport order.
func (p *Profiler) DumpTrace() *TraceDump {
	return &TraceDump{
		Entity:  p.entity,
		PID:     p.pid,
		Dropped: p.TraceDropped(),
		Events:  p.TraceEvents(),
	}
}
