package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"symbiosys/internal/core"
)

// metricPrefix namespaces every exported family.
const metricPrefix = "symbiosys_"

// Exposer aggregates instances into one HTTP surface: Prometheus text
// exposition on GET /metrics and a JSON snapshot (samples, callpath
// stats) on GET /snapshot. Every request reads each registered Source
// at that moment; between requests the exposer does nothing.
type Exposer struct {
	mu      sync.Mutex
	sources []Source
	ln      net.Listener
	srv     *http.Server
	// served closes when the serve goroutine exits, so Close can wait
	// for it instead of leaking the goroutine past teardown.
	served chan struct{}
}

// NewExposer returns an empty exposer; register sources then Serve.
func NewExposer() *Exposer { return &Exposer{} }

// Register adds an instance to the scrape surface.
func (e *Exposer) Register(src Source) {
	e.mu.Lock()
	e.sources = append(e.sources, src)
	e.mu.Unlock()
}

// registered returns a copy of the registered sources.
func (e *Exposer) registered() []Source {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Source(nil), e.sources...)
}

// callpaths reads src's per-callpath statistics, sorted by cumulative
// time descending (dominant first).
func callpaths(src Source) []CallpathStat {
	cps := src.CallpathStats()
	sort.Slice(cps, func(i, j int) bool {
		if cps[i].Stats.CumNanos != cps[j].Stats.CumNanos {
			return cps[i].Stats.CumNanos > cps[j].Stats.CumNanos
		}
		if cps[i].Side != cps[j].Side {
			return cps[i].Side < cps[j].Side
		}
		if cps[i].Path != cps[j].Path {
			return cps[i].Path < cps[j].Path
		}
		return cps[i].Peer < cps[j].Peer
	})
	return cps
}

// Handler returns the HTTP mux serving /metrics and /snapshot.
func (e *Exposer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		e.WriteMetrics(w)
	})
	mux.HandleFunc("GET /snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		e.WriteSnapshot(w)
	})
	return mux
}

// Serve starts listening on addr (":0" picks a free port) and serves
// the exposition endpoints until Close. It returns the bound address.
func (e *Exposer) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: e.Handler()}
	served := make(chan struct{})
	e.mu.Lock()
	e.ln, e.srv, e.served = ln, srv, served
	e.mu.Unlock()
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Close stops the HTTP listener and waits for the serve goroutine to
// exit, so tests and cluster teardown do not leak listeners or
// goroutines. It is idempotent and a no-op if Serve was never called.
func (e *Exposer) Close() error {
	e.mu.Lock()
	srv, served := e.srv, e.served
	e.srv, e.ln, e.served = nil, nil, nil
	e.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Close()
	<-served
	return err
}

// family accumulates the samples of one metric family across instances.
type family struct {
	kind Kind
	rows []string // fully rendered sample lines
}

// WriteMetrics reads every registered instance and renders the
// Prometheus text exposition: one family per sample row (one line per
// instance) plus the per-callpath latency histogram family.
func (e *Exposer) WriteMetrics(w io.Writer) {
	fams := make(map[string]*family)
	var order []string
	add := func(name string, kind Kind, line string) {
		f := fams[name]
		if f == nil {
			f = &family{kind: kind}
			fams[name] = f
			order = append(order, name)
		}
		f.rows = append(f.rows, line)
	}

	var hist []string
	for _, src := range e.registered() {
		inst := src.Addr()
		for _, r := range sampleRows(src.TelemetrySample()) {
			fam, labels := familyFor(r.name, inst)
			add(fam, r.kind, fmt.Sprintf("%s{%s} %s", fam, labels, formatFloat(r.v)))
		}
		hist = append(hist, renderCallpathHistograms(inst, callpaths(src))...)
	}

	sort.Strings(order)
	for _, name := range order {
		f := fams[name]
		fmt.Fprintf(w, "# HELP %s SYMBIOSYS live telemetry series %s.\n", name, strings.TrimPrefix(name, metricPrefix))
		fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind)
		sort.Strings(f.rows)
		for _, r := range f.rows {
			fmt.Fprintln(w, r)
		}
	}
	if len(hist) > 0 {
		const hf = metricPrefix + "callpath_latency_seconds"
		fmt.Fprintf(w, "# HELP %s Per-callpath RPC latency distribution (two-per-octave buckets).\n", hf)
		fmt.Fprintf(w, "# TYPE %s histogram\n", hf)
		for _, r := range hist {
			fmt.Fprintln(w, r)
		}
	}
}

// familyFor maps a row name to its metric family and label set.
// "pool/<name>/<stat>" becomes symbiosys_pool_<stat>{pool="<name>"},
// "pvar/<name>" becomes symbiosys_pvar_<name>, everything else is
// symbiosys_<series>.
func familyFor(series, instance string) (fam, labels string) {
	labels = `instance="` + escapeLabel(instance) + `"`
	switch {
	case strings.HasPrefix(series, "pool/"):
		rest := strings.TrimPrefix(series, "pool/")
		if i := strings.LastIndexByte(rest, '/'); i >= 0 {
			pool, stat := rest[:i], rest[i+1:]
			return metricPrefix + "pool_" + sanitizeName(stat),
				labels + `,pool="` + escapeLabel(pool) + `"`
		}
	case strings.HasPrefix(series, "pvar/"):
		return metricPrefix + "pvar_" + sanitizeName(strings.TrimPrefix(series, "pvar/")), labels
	case strings.HasPrefix(series, "batch_flush_reason/"):
		reason := strings.TrimPrefix(series, "batch_flush_reason/")
		return metricPrefix + "batch_flushes_by_reason_total",
			labels + `,reason="` + escapeLabel(reason) + `"`
	}
	return metricPrefix + sanitizeName(series), labels
}

// renderCallpathHistograms renders one Prometheus histogram per
// callpath: cumulative le buckets in seconds, then +Inf, _sum, _count.
func renderCallpathHistograms(instance string, cps []CallpathStat) []string {
	const hf = metricPrefix + "callpath_latency_seconds"
	var out []string
	for _, cp := range cps {
		if cp.Stats.Count == 0 {
			continue
		}
		base := fmt.Sprintf(`instance="%s",side="%s",path="%s",peer="%s"`,
			escapeLabel(instance), escapeLabel(cp.Side), escapeLabel(cp.Path), escapeLabel(cp.Peer))
		var cum uint64
		for i, c := range cp.Stats.Hist {
			cum += uint64(c)
			if i == core.HistBuckets-1 {
				break // rendered as +Inf below
			}
			if c == 0 && i != core.HistBuckets-2 {
				// Sparse rendering: skip empty interior buckets (the
				// cumulative count is unchanged); always keep the last
				// finite bucket so the +Inf step is explicit.
				continue
			}
			_, hi := core.HistBucketBounds(i)
			out = append(out, fmt.Sprintf(`%s_bucket{%s,le="%s"} %d`,
				hf, base, formatFloat(float64(hi)/1e9), cum))
		}
		out = append(out, fmt.Sprintf(`%s_bucket{%s,le="+Inf"} %d`, hf, base, cp.Stats.Count))
		out = append(out, fmt.Sprintf(`%s_sum{%s} %s`, hf, base, formatFloat(float64(cp.Stats.CumNanos)/1e9)))
		out = append(out, fmt.Sprintf(`%s_count{%s} %d`, hf, base, cp.Stats.Count))
	}
	return out
}

// InstanceSnapshot is one instance's slice of the JSON snapshot: the
// sample read for this request and its callpath statistics.
type InstanceSnapshot struct {
	Addr      string         `json:"addr"`
	Last      Sample         `json:"last"`
	Callpaths []CallpathStat `json:"callpaths,omitempty"`
}

// Snapshot is the GET /snapshot payload.
type Snapshot struct {
	UnixNanos int64              `json:"unix_nanos"`
	Instances []InstanceSnapshot `json:"instances"`
}

// BuildSnapshot reads every registered instance into the JSON snapshot
// view.
func (e *Exposer) BuildSnapshot() Snapshot {
	snap := Snapshot{UnixNanos: time.Now().UnixNano()}
	for _, src := range e.registered() {
		snap.Instances = append(snap.Instances, InstanceSnapshot{
			Addr:      src.Addr(),
			Last:      src.TelemetrySample(),
			Callpaths: callpaths(src),
		})
	}
	return snap
}

// WriteSnapshot writes the JSON snapshot.
func (e *Exposer) WriteSnapshot(w io.Writer) {
	enc := json.NewEncoder(w)
	_ = enc.Encode(e.BuildSnapshot())
}

// sanitizeName coerces a series name into Prometheus metric-name
// characters.
func sanitizeName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
