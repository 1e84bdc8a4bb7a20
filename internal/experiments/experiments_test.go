package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/services/hepnos"
	"symbiosys/internal/services/mobject"
	"symbiosys/internal/services/sdskv"
	"symbiosys/internal/workload/dataloader"
)

// scaled shrinks a Table IV configuration for test runtime.
func scaled(cfg HEPnOSConfig, div int) HEPnOSConfig {
	cfg = cfg.Scaled(div)
	if cfg.TotalClients > 8 {
		cfg.TotalClients = 8
		cfg.ClientsPerNode = 4
	}
	return cfg
}

func TestTableIVHasSevenConfigs(t *testing.T) {
	cfgs := TableIV()
	if len(cfgs) != 7 {
		t.Fatalf("TableIV = %d configs", len(cfgs))
	}
	// Spot-check the paper's values.
	if cfgs[0].Threads != 5 || cfgs[1].Threads != 20 {
		t.Fatal("C1/C2 thread counts wrong")
	}
	if cfgs[1].Databases != 32 || cfgs[2].Databases != 8 {
		t.Fatal("C2/C3 database counts wrong")
	}
	if cfgs[3].BatchSize != 1024 || cfgs[4].BatchSize != 1 {
		t.Fatal("C4/C5 batch sizes wrong")
	}
	if cfgs[5].OFIMaxEvents != 64 || cfgs[4].OFIMaxEvents != 16 {
		t.Fatal("C5/C6 OFI_max_events wrong")
	}
	if !cfgs[6].ClientProgressThread || cfgs[5].ClientProgressThread {
		t.Fatal("C6/C7 progress thread flags wrong")
	}
}

// TestScaledFloor pins the one scaling rule every driver uses: events
// per client are divided down to a floor of 64, a configuration already
// below the floor keeps its count, and a divisor of 1 or less changes
// nothing.
func TestScaledFloor(t *testing.T) {
	small := C1
	small.EventsPerClient = 40
	for _, tc := range []struct {
		cfg       HEPnOSConfig
		div, want int
	}{
		{C1, 8, 256},  // 2048 / 8
		{C5, 256, 64}, // 8192 / 256 = 32, floored
		{C1, 1 << 20, 64},
		{small, 4, 40}, // never raised above the configured count
		{C1, 1, 2048},
		{C1, 0, 2048},
		{C1, -3, 2048},
	} {
		got := tc.cfg.Scaled(tc.div)
		if got.EventsPerClient != tc.want {
			t.Errorf("%s (%d events).Scaled(%d): %d events, want %d",
				tc.cfg.Name, tc.cfg.EventsPerClient, tc.div, got.EventsPerClient, tc.want)
		}
		if got.EventsPerClient = tc.cfg.EventsPerClient; !reflect.DeepEqual(got, tc.cfg) {
			t.Errorf("%s.Scaled(%d) changed more than the event count", tc.cfg.Name, tc.div)
		}
	}
}

func TestRunHEPnOSStoresAllEvents(t *testing.T) {
	cfg := scaled(C1, 8)
	res, err := RunHEPnOS(cfg, "", "")
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(cfg.TotalClients * cfg.EventsPerClient)
	if res.EventsStored != want {
		t.Fatalf("stored %d events, want %d", res.EventsStored, want)
	}
	if res.CumTargetExec == 0 || res.CumOriginExec == 0 {
		t.Fatal("no execution time recorded")
	}
	if res.LostAcked != 0 {
		t.Fatalf("servers are missing %d acknowledged events", res.LostAcked)
	}
	if res.Traces.NumEvents() == 0 {
		t.Fatal("no trace samples at Full stage")
	}
	if len(res.BlockedSeries) == 0 {
		t.Fatal("no blocked-ULT samples")
	}
	if len(res.OFISeries) == 0 {
		t.Fatal("no OFI samples")
	}
	if res.HandlerFraction() <= 0 || res.HandlerFraction() >= 1 {
		t.Fatalf("handler fraction = %f", res.HandlerFraction())
	}
}

func TestFig9HandlerSaturationShape(t *testing.T) {
	// C1 (5 streams) must show a larger handler-time share than C2 (20
	// streams), and C2's cumulative target execution must be lower —
	// the paper's Figure 9 result. Execution time is wall time, so a
	// burst of load on the host inflates whichever run it lands on: the
	// two configurations alternate over four pairs and their sums are
	// compared. One pair alone came out the wrong way in about one in
	// eleven with other tests busy on a 2-core host; the sums did not.
	var cum1, cum2 time.Duration
	for pair := 0; pair < 4; pair++ {
		r1, err := RunHEPnOS(scaled(C1, 4), "", "")
		if err != nil {
			t.Fatal(err)
		}
		r2, err := RunHEPnOS(scaled(C2, 4), "", "")
		if err != nil {
			t.Fatal(err)
		}
		if r1.HandlerFraction() <= r2.HandlerFraction() {
			t.Fatalf("pair %d: handler fraction C1=%.3f <= C2=%.3f",
				pair, r1.HandlerFraction(), r2.HandlerFraction())
		}
		cum1 += r1.CumTargetExec
		cum2 += r2.CumTargetExec
	}
	if cum2 >= cum1 {
		t.Fatalf("cumulative target exec over four runs C2=%v >= C1=%v", cum2, cum1)
	}
}

func TestFig10DatabaseSerializationShape(t *testing.T) {
	// C2 (32 dbs/server) floods the service with more, smaller RPCs
	// than C3 (8 dbs/server): C3 must be faster with fewer, larger
	// put_packed calls (paper §V-C3).
	r2, err := RunHEPnOS(scaled(C2, 4), "", "")
	if err != nil {
		t.Fatal(err)
	}
	r3, err := RunHEPnOS(scaled(C3, 4), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if r3.Unaccounted.Count >= r2.Unaccounted.Count {
		t.Fatalf("RPC count C3=%d >= C2=%d", r3.Unaccounted.Count, r2.Unaccounted.Count)
	}
	if r3.CumTargetExec >= r2.CumTargetExec {
		t.Fatalf("cumulative target exec C3=%v >= C2=%v", r3.CumTargetExec, r2.CumTargetExec)
	}
	if r2.MaxBlocked() == 0 {
		t.Fatal("C2 shows no blocked ULTs — serialization signal missing")
	}
}

func TestFig11BatchAndProgressShape(t *testing.T) {
	// The remediation chain of paper §V-C4, held to what the runs count
	// rather than to how long they took on this host: batch 1 (C5)
	// issues one put_packed per event where batch 1024 (C4) issues a
	// handful; raising OFI_max_events (C6) and then giving the client a
	// dedicated progress stream (C7) change nothing about the RPCs
	// issued but take the progress loop off its read budget. The one
	// wall-clock claim kept is the one whose margin (7x on an idle host,
	// 1.9x at worst with every other package's tests running beside it)
	// scheduler noise does not close: C5 takes longer than C4. The
	// latency ratios the figure plots are logged.
	run := func(cfg HEPnOSConfig) *HEPnOSResult {
		r, err := RunHEPnOS(scaled(cfg, 8), "", "")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r4, r5, r6, r7 := run(C4), run(C5), run(C6), run(C7)

	mean := func(r *HEPnOSResult) time.Duration {
		if r.Unaccounted.Count == 0 {
			return 0
		}
		return r.CumOriginExec / time.Duration(r.Unaccounted.Count)
	}
	for _, r := range []*HEPnOSResult{r4, r5, r6, r7} {
		t.Logf("%s: wall %v, %d RPCs for %d events, per-RPC origin exec %v, unaccounted %.3f, OFI at cap %.3f",
			r.Config.Name, r.WallTime, r.Unaccounted.Count, r.EventsStored, mean(r),
			r.Unaccounted.UnaccountedFraction(), r.OFIAtCapFraction())
	}

	if r5.WallTime <= r4.WallTime {
		t.Errorf("batch-1 wall %v not slower than batch-1024 %v", r5.WallTime, r4.WallTime)
	}
	for _, r := range []*HEPnOSResult{r5, r6, r7} {
		if r.Unaccounted.Count != r.EventsStored {
			t.Errorf("%s: %d RPCs for %d events, want one each", r.Config.Name, r.Unaccounted.Count, r.EventsStored)
		}
	}
	if r4.EventsStored != r5.EventsStored || r4.Unaccounted.Count*8 > r5.Unaccounted.Count {
		t.Errorf("C4 issued %d RPCs for %d events against C5's %d for %d: batching did not amortise the hop",
			r4.Unaccounted.Count, r4.EventsStored, r5.Unaccounted.Count, r5.EventsStored)
	}
	if c5, c6, c7 := r5.OFIAtCapFraction(), r6.OFIAtCapFraction(), r7.OFIAtCapFraction(); c5 < 0.5 || c6 > c5/2 || c7 > 0.05 {
		t.Errorf("OFI at-cap fraction C5=%.3f C6=%.3f C7=%.3f, want pinned, then at most half of that, then ~0", c5, c6, c7)
	}
}

func TestFig12OFISeriesShape(t *testing.T) {
	// C5's progress loop must hit its 16-event budget almost always;
	// C7's must never (paper Figure 12).
	r5, err := RunHEPnOS(scaled(C5, 8), "", "")
	if err != nil {
		t.Fatal(err)
	}
	r7, err := RunHEPnOS(scaled(C7, 8), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if r5.OFIAtCapFraction() < 0.5 {
		t.Fatalf("C5 at-cap fraction = %.3f, want >= 0.5", r5.OFIAtCapFraction())
	}
	if r7.OFIAtCapFraction() > 0.05 {
		t.Fatalf("C7 at-cap fraction = %.3f, want ~0", r7.OFIAtCapFraction())
	}
}

func TestMobjectStudy(t *testing.T) {
	res, err := RunMobjectIOR(MobjectConfig{Clients: 4, Segments: 3, TransferSize: 4096}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dominant) == 0 {
		t.Fatal("no dominant callpaths")
	}
	// The top callpath must be one of the mobject ops, and the nested
	// write structure must show the 12 discrete calls of Figure 5.
	top := res.Dominant[0].Name
	if !strings.Contains(top, "mobject_") {
		t.Fatalf("top callpath = %q", top)
	}
	if res.WriteTraceRequestID == 0 {
		t.Fatal("no write_op trace captured")
	}
	if n := res.NestedWriteCalls(); n != 12 {
		t.Fatalf("nested write calls = %d, want 12", n)
	}
	// Zipkin export of that request parses and has spans.
	var buf bytes.Buffer
	if err := res.Traces.WriteZipkin(&buf, res.WriteTraceRequestID); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mobject_write_op") {
		t.Fatal("zipkin export missing write_op span")
	}
}

func TestMobjectReadListDominant(t *testing.T) {
	// Figure 6: within mobject_read_op, the sdskv_list_keyvals_rpc hop
	// carries the dominant share of nested time. Sixteen reads per client
	// rather than four, so that one preempted call of another hop cannot
	// outweigh the lists: at four, a busy 2-core host put list below
	// another hop in about one run in ten.
	res, err := RunMobjectIOR(MobjectConfig{Clients: 4, Segments: 16, TransferSize: 2048}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	readBC := core.Breadcrumb(0).Push(mobject.RPCReadOp)
	listBC := readBC.Push(sdskv.RPCListKeyvals)
	var listCum, otherCum uint64
	for _, row := range res.Profile.DominantCallpaths(0) {
		if row.BC.Parent() != readBC {
			continue
		}
		if row.BC == listBC {
			listCum = row.CumNanos
		} else if row.CumNanos > otherCum {
			otherCum = row.CumNanos
		}
	}
	if listCum == 0 {
		t.Fatal("no list_keyvals callpath under read_op")
	}
	if listCum < otherCum {
		t.Fatalf("list_keyvals cum %v below another nested hop %v",
			time.Duration(listCum), time.Duration(otherCum))
	}
}

func TestSonataStudy(t *testing.T) {
	res, err := RunSonata(SonataConfig{Records: 5000, BatchSize: 500, RecordSize: 256}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.RPCCalls != 10 {
		t.Fatalf("RPC calls = %d, want 10", res.RPCCalls)
	}
	// Figure 7 shape: deserialization is a significant share; the
	// internal RDMA transfer is comparatively low but nonzero (batches
	// overflow the eager buffer).
	if f := res.DeserFraction(); f < 0.05 {
		t.Fatalf("deser fraction = %.3f, want significant", f)
	}
	if res.RDMA == 0 {
		t.Fatal("no internal RDMA time despite oversized metadata")
	}
	if res.RDMAFraction() > res.DeserFraction() {
		t.Fatalf("RDMA fraction %.3f exceeds deser fraction %.3f",
			res.RDMAFraction(), res.DeserFraction())
	}
}

func TestOverheadStudyStagesComparable(t *testing.T) {
	base := scaled(C4, 16)
	res, err := RunOverheadStudy(OverheadConfig{Base: base, Reps: 5}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 4 {
		t.Fatalf("stages = %d", len(res.Stages))
	}
	// Full-support overhead must stay within run-to-run variation
	// territory (paper: indistinguishable; we allow 2x headroom for the
	// noisy test host). The paper's five repetitions, not two: each run
	// is about 30 ms, and with two a single burst of load on a 2-core
	// host put the Full mean past 2x the baseline in about one run in
	// eight.
	if ovh := res.OverheadVsBaseline(core.StageFull); ovh > 2.0 {
		t.Fatalf("full-support overhead = %.2fx baseline", ovh)
	}
	// Baseline must collect no trace samples; Full must collect some.
	for _, st := range res.Stages {
		if st.Stage == core.StageOff && st.TraceSamples != 0 {
			t.Fatalf("baseline collected %d samples", st.TraceSamples)
		}
		if st.Stage == core.StageFull && st.TraceSamples == 0 {
			t.Fatal("full support collected no samples")
		}
	}
}

// smallHEPnOSRun stores 48 events, one RPC each, from one loader into a
// one-server HEPnOS deployment at StageFull, and returns the cluster and
// the trace events its processes buffered.
func smallHEPnOSRun(t *testing.T) (*Cluster, []core.Event) {
	cluster := NewCluster(DefaultFabric())
	t.Cleanup(func() { cluster.Shutdown() })
	server, err := cluster.Start(ProcessOptions{Mode: margo.ModeServer, Node: "server-node0", Name: "hepnos0", HandlerStreams: 2, Stage: core.StageFull})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hepnos.NewServer(server, 2, "map", sdskv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := cluster.Start(ProcessOptions{Mode: margo.ModeClient, Node: "client-node0", Name: "loader0", Stage: core.StageFull})
	if err != nil {
		t.Fatal(err)
	}
	const events = 48
	stored, err := dataloader.Run(client, dataloader.Config{Events: events, EventSize: 256, BatchSize: 1,
		Servers: []hepnos.ServerInfo{{Addr: srv.Addr(), DBIDs: srv.DBIDs}}, Seed: 1})
	if err != nil || stored != events {
		t.Fatalf("stored %d of %d events: %v", stored, events, err)
	}
	cluster.WaitIdle(2 * time.Second)

	var want []core.Event
	for _, inst := range cluster.Instances() {
		want = append(want, inst.Profiler().TraceEvents()...)
	}
	if len(want) < 4*events {
		t.Fatalf("%d events buffered, want at least %d", len(want), 4*events)
	}
	return cluster, want
}

// keepSink is a trace sink keeping a copy of every event it is lent.
type keepSink struct{ evs []core.Event }

func (s *keepSink) WriteEvent(ev core.Event) error {
	if ev.PVars != nil {
		pv := *ev.PVars
		ev.PVars = &pv
	}
	if ev.Components != nil {
		comps := *ev.Components
		ev.Components = &comps
	}
	s.evs = append(s.evs, ev)
	return nil
}

func (s *keepSink) Flush() error { return nil }

// TestClusterExportRoundTrip streams a small HEPnOS run's traces out of
// Cluster.Export, once as the JSONL stream and once into a sink that
// keeps what it is lent, and wants both to hold exactly the events the
// processes buffered, annotations included.
func TestClusterExportRoundTrip(t *testing.T) {
	cluster, want := smallHEPnOSRun(t)
	var buf bytes.Buffer
	var kept keepSink
	if err := cluster.Export(nil, core.NewJSONLTraceSink(&buf)); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Export(nil, &kept); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	got, truncated, err := core.ReadEventsJSONL(&buf)
	if err != nil || truncated != 0 {
		t.Fatalf("ReadEventsJSONL: truncated %d, %v", truncated, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the JSONL stream read back as %d events, not the %d exported", len(got), len(want))
	}
	if !reflect.DeepEqual(kept.evs, want) {
		t.Errorf("the keeping sink holds %d events, not the %d exported", len(kept.evs), len(want))
	}
	t.Logf("%d events, %d B streamed, %.1f B/event", len(want), size, float64(size)/float64(len(want)))
}

// TestJSONLExportBytesPerEvent bounds what the streamed trace of a real
// shape mix costs: a small HEPnOS run's export, header and definitions
// included. Each shape (kind, callpath, entity, peer, RPC) and system
// sample is written once per stream, so an event line carries its IDs,
// timestamp, pool counters and annotations, and each end folds into its
// start, so it carries a back-reference and residuals instead of its IDs
// and timestamp; 68 B/event when this bound was set (71-73 under the
// race detector, whose slower run takes more digits), 83 B/event when
// every end was spelled in full, 121 B/event when every line also
// spelled its own shape and sample.
func TestJSONLExportBytesPerEvent(t *testing.T) {
	cluster, want := smallHEPnOSRun(t)
	var buf bytes.Buffer
	if err := cluster.Export(nil, core.NewJSONLTraceSink(&buf)); err != nil {
		t.Fatal(err)
	}
	if per := float64(buf.Len()) / float64(len(want)); per > 80 {
		t.Errorf("%d events stream as %d B, %.1f B/event; want <= 80", len(want), buf.Len(), per)
	}
}
