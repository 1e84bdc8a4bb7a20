// Package telemetry is the live observation plane over the SYMBIOSYS
// measurement pipeline. Where the profiling and tracing layers
// (internal/core) accumulate state for end-of-run analysis, telemetry
// samples that state on a periodic tick into bounded time-series rings
// and exposes the result over HTTP — Prometheus text exposition on
// /metrics and a JSON snapshot on /snapshot — so an operator (or the
// policy engine) can watch a run while it executes instead of waiting
// for the post-mortem profile dump.
//
// The package sits below margo in the import order: it defines the
// Source interface that margo.Instance implements, so it never imports
// the layers it observes.
package telemetry

// Kind classifies a series for exposition: gauges go up and down
// (queue depths, pool occupancy), counters only accumulate (events
// read, trace drops) and are meaningful as deltas and rates.
type Kind int

// Series kinds.
const (
	Gauge Kind = iota
	Counter
)

// String names the kind using Prometheus type vocabulary.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// Point is one timestamped observation.
type Point struct {
	UnixNanos int64   `json:"t"`
	Value     float64 `json:"v"`
}

// Series is a bounded ring of observations of one metric. Pushing past
// capacity evicts the oldest point, so a sampler running forever holds
// a sliding window rather than growing without bound. Series is not
// internally synchronized; the owning Sampler serializes access.
type Series struct {
	kind Kind
	buf  []Point
	head int // index of oldest point
	n    int
}

// NewSeries creates a ring holding up to capacity points (minimum 2, so
// a reader of Points can always derive a delta or a rate once two ticks
// have elapsed).
func NewSeries(kind Kind, capacity int) *Series {
	if capacity < 2 {
		capacity = 2
	}
	return &Series{kind: kind, buf: make([]Point, capacity)}
}

// Kind reports whether the series is a gauge or a counter.
func (s *Series) Kind() Kind { return s.kind }

// Len reports the number of buffered points.
func (s *Series) Len() int { return s.n }

// Push appends an observation, evicting the oldest when full.
func (s *Series) Push(unixNanos int64, v float64) {
	i := (s.head + s.n) % len(s.buf)
	s.buf[i] = Point{UnixNanos: unixNanos, Value: v}
	if s.n < len(s.buf) {
		s.n++
	} else {
		s.head = (s.head + 1) % len(s.buf)
	}
}

// Points returns a chronological copy of the buffered window.
func (s *Series) Points() []Point {
	out := make([]Point, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.buf[(s.head+i)%len(s.buf)]
	}
	return out
}
