package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval the harness recorded around a public call
// it made: a service-client call, an analysis stage, or a probe. Parent
// is the index of the enclosing span in the same lane (-1 for a root);
// Op numbers the driver-level operation the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Lane   string `json:"lane"`
	// Self is the span's duration minus what its child spans cover,
	// filled in when the spans are written out.
	Self int64 `json:"self_ns"`
}

// lane collects what one sequential driver (an issuer ULT, a loader
// process, the analysis loop) observes: the per-op latency of each
// outermost call and, on traced runs, a span per call. Lanes are
// single-writer, so recording takes no lock and allocates only when a
// slice grows.
type lane struct {
	name     string
	traced   bool
	capacity int
	samples  []float64 // µs per op, one per outermost call
	spans    []span
	op       int64
	open     int // index of the innermost open span, -1 if none
}

// newLane returns a lane with room for capacity calls, so recording
// does not reallocate inside a timed rep.
func newLane(name string, traced bool, capacity int) *lane {
	l := &lane{name: name, traced: traced, capacity: capacity, open: -1}
	l.samples = make([]float64, 0, capacity)
	return l
}

// begin opens a span (traced runs only) and returns the start instant.
func (l *lane) begin(name string) time.Time {
	if l.traced && l.spans == nil {
		l.spans = make([]span, 0, l.capacity)
	}
	now := time.Now()
	if l.traced {
		l.spans = append(l.spans, span{Name: name, Start: now.UnixNano(), Parent: l.open, Op: l.op, Lane: l.name})
		l.open = len(l.spans) - 1
	}
	return now
}

// end closes the innermost span. For an outermost call it also records
// the latency sample, divided by the ops the call carried.
func (l *lane) end(start time.Time, ops int) {
	now := time.Now()
	outer := true
	if l.traced {
		s := &l.spans[l.open]
		s.End = now.UnixNano()
		l.open = s.Parent
		outer = l.open == -1
	}
	if outer && ops > 0 {
		l.samples = append(l.samples, float64(now.Sub(start).Nanoseconds())/1e3/float64(ops))
		l.op++
	}
}

// stage closes a nested span that carries no latency sample of its own
// (an analysis stage inside a pass).
func (l *lane) stage(start time.Time) { l.end(start, 0) }

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its direct children. Overlapping children are
// merged first, and children are clipped to the parent, so no interval
// is subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, curStart, curEnd int64
		have := false
		for _, k := range kids {
			ks, ke := spans[k].Start, spans[k].End
			if ks < s.Start {
				ks = s.Start
			}
			if ke > s.End {
				ke = s.End
			}
			if ke <= ks {
				continue
			}
			switch {
			case !have:
				curStart, curEnd, have = ks, ke, true
			case ks <= curEnd:
				if ke > curEnd {
					curEnd = ke
				}
			default:
				covered += curEnd - curStart
				curStart, curEnd = ks, ke
			}
		}
		if have {
			covered += curEnd - curStart
		}
		self[i] -= covered
	}
	return self
}

// medianSpanUS returns the median duration, in microseconds, of the
// spans of each name.
func medianSpanUS(spans []span) map[string]float64 {
	durs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
	}
	out := make(map[string]float64, len(durs))
	for name, d := range durs {
		out[name] = median(d)
	}
	return out
}

// writeSpans writes the traced run's spans, each with its self time, as
// JSON lines. Parent indices are per lane, so self times are computed
// lane by lane.
func writeSpans(path string, lanes [][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, spans := range lanes {
		self := selfTimes(spans)
		for i := range spans {
			spans[i].Self = self[i]
			if err := enc.Encode(&spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
