package main

// adapter.go is the only file of the harness that imports the
// repository. Every public function the benchmark depends on is called
// from here and listed in README.md ("Pinned public functions"), so a
// change that renames or merges an API sees in one place what it must
// keep compatible. Nothing here reaches into thallium, kv/lsm.go,
// policy or ekv.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/analysis"
	"symbiosys/internal/analysis/report"
	"symbiosys/internal/batch"
	"symbiosys/internal/core"
	"symbiosys/internal/experiments"
	"symbiosys/internal/kv"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
	"symbiosys/internal/services/hepnos"
	"symbiosys/internal/services/mobject"
	"symbiosys/internal/services/sdskv"
	"symbiosys/internal/workload/dataloader"
)

// modeledCost is what every modeled backend cost a public config
// exposes is set to. Zero would select a multi-microsecond default; one
// nanosecond makes the timers measure this repository's code, not the
// host's sleep granularity.
const modeledCost = time.Nanosecond

const kvBackend = "map"

// ---------------------------------------------------------------------
// Deployment: a cluster of virtual processes plus the measurement
// surfaces the harness reads from it.

type deploy struct {
	cluster *experiments.Cluster
	// rtt is the modeled request+response transit between the driver
	// and the service it calls (two one-way fabric latencies).
	rtt time.Duration
}

func newDeploy(colocated bool) *deploy {
	cfg := experiments.DefaultFabric()
	d := &deploy{cluster: experiments.NewCluster(cfg), rtt: experiments.NominalRTT(cfg)}
	if colocated {
		d.rtt = 2 * cfg.LatencyLocal
	}
	return d
}

func (d *deploy) start(o experiments.ProcessOptions) (*margo.Instance, error) {
	o.Stage = core.StageFull
	return d.cluster.Start(o)
}

func (d *deploy) shutdown() error { return d.cluster.Shutdown() }

// quiesce waits until no RPC is in flight and the target-side
// completion callbacks (t13) of the last responses have landed, so a
// following reset or dump sees whole requests only.
func (d *deploy) quiesce() error {
	if !d.cluster.WaitIdle(30 * time.Second) {
		return fmt.Errorf("cluster did not go idle")
	}
	time.Sleep(10 * time.Millisecond)
	return nil
}

// resetMeasurements empties every process's profile and trace buffers,
// so the buffers hold exactly one rep when it ends.
func (d *deploy) resetMeasurements() {
	for _, inst := range d.cluster.Instances() {
		inst.Profiler().ResetMeasurements()
	}
}

// setStage switches every process between the always-on instrument
// (StageFull) and no instrumentation at all (StageOff).
func (d *deploy) setStage(full bool) {
	st := core.StageOff
	if full {
		st = core.StageFull
	}
	for _, inst := range d.cluster.Instances() {
		inst.SetStage(st)
	}
}

// countingWriter counts the bytes a sink writes and discards them.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// traceExport streams every buffered trace event through the JSONL
// trace sink and reports the bytes it wrote and the events it carried.
func (d *deploy) traceExport() (bytes int64, events uint64, err error) {
	var w countingWriter
	sink := core.NewJSONLTraceSink(&w)
	if err := d.cluster.Export(nil, sink); err != nil {
		return 0, 0, err
	}
	if err := sink.Err(); err != nil {
		return 0, 0, err
	}
	for _, inst := range d.cluster.Instances() {
		events += uint64(inst.Profiler().TraceLen())
	}
	return w.n, events, nil
}

// traceDropped is how many trace events the processes' buffers have
// discarded.
func (d *deploy) traceDropped() (dropped uint64) {
	for _, inst := range d.cluster.Instances() {
		dropped += inst.Profiler().TraceDropped()
	}
	return dropped
}

// counters is one snapshot of the public counters of every layer,
// summed over the deployment's processes (high-water marks: the
// maximum). Deltas over a run divided by its ops give the (C) metrics.
type counters struct {
	naEvents, naOverflows                        uint64
	rpcsInvoked, bulkBytes, eagerOverflows       uint64
	batchesForwarded, batchedOps, staleResponses uint64
	postedHWM, cqHWM                             uint64
	quanta, steals, parks, wakes                 uint64
	handlerPoolHWM                               uint64
	spinPolls, progressParks, retries, timeouts  uint64
	batchFlushes, batchOps, batchFlushFull       uint64
	traceEvents, traceDropped, sinkErrors        uint64
}

func (d *deploy) counters() counters {
	var c counters
	for _, inst := range d.cluster.Instances() {
		s := inst.TelemetrySample()
		c.naEvents += s.EventsPosted
		c.naOverflows += s.CQOverflows
		c.quanta += s.SchedQuanta
		c.steals += s.SchedSteals
		c.parks += s.SchedParks
		c.wakes += s.SchedWakes
		c.spinPolls += s.ProgressSpinPolls
		c.progressParks += s.ProgressParks
		c.traceEvents += uint64(s.TraceLen) + s.TraceDropped
		c.traceDropped += s.TraceDropped
		c.sinkErrors += s.SinkErrors

		rs := inst.RetryStats()
		c.retries += rs.Retries
		c.timeouts += rs.Timeouts

		bs := inst.BatchStats()
		c.batchFlushes += bs.Flushes
		c.batchOps += bs.Ops
		c.batchFlushFull += bs.FlushReasons[batch.ReasonFull.String()]

		if hwm := uint64(inst.HandlerPool().SizeHighWatermark()); inst.Mode() == margo.ModeServer && hwm > c.handlerPoolHWM {
			c.handlerPoolHWM = hwm
		}

		sess := inst.Mercury().PVars().InitSession()
		read := func(name string) uint64 {
			h, err := sess.AllocHandleByName(name)
			if err != nil {
				return 0
			}
			v, _ := sess.Read(h, nil)
			return v
		}
		c.rpcsInvoked += read(mercury.PVarNumRPCsInvoked)
		c.bulkBytes += read(mercury.PVarBulkBytesTransferred)
		c.eagerOverflows += read(mercury.PVarNumEagerOverflows)
		c.batchesForwarded += read(mercury.PVarNumBatchesForwarded)
		c.batchedOps += read(mercury.PVarNumBatchedOpsFwd)
		c.staleResponses += read(mercury.PVarNumStaleResponses)
		if v := read(mercury.PVarPostedHandlesHWM); v > c.postedHWM {
			c.postedHWM = v
		}
		if v := read(mercury.PVarCompletionQueueHWM); v > c.cqHWM {
			c.cqHWM = v
		}
		sess.Finalize()
	}
	return c
}

// profileSplit is the stack's own account of where time went: the
// Table III components of the merged profile dumps, cumulative
// nanoseconds over the dumped interval, plus call counts.
type profileSplit struct {
	inputSer, inputDeser, outputSer, rdma, originCB float64
	handlerWait, targetCB                           float64
	originExec, unaccounted                         float64
	putPackedExec                                   float64
	nestedCalls, putPackedCalls                     float64
	blockedHWM                                      float64
	dumpMS                                          float64
}

// profile dumps every process (timing the dump itself), merges the
// dumps and splits them by component.
func (d *deploy) profile() profileSplit {
	t0 := time.Now()
	profiles, traces := d.cluster.Collect()
	ps := profileSplit{dumpMS: float64(time.Since(t0).Nanoseconds()) / 1e6}
	m := analysis.Merge(profiles)
	putPacked := core.Breadcrumb(0).Push(sdskv.RPCPutPacked)
	roots := map[core.Breadcrumb]bool{}
	for key, s := range m.Origin {
		ps.inputSer += float64(s.Components[core.CompInputSer])
		ps.originCB += float64(s.Components[core.CompOriginCB])
		if key.BC.Depth() == 1 {
			ps.originExec += float64(s.Components[core.CompOriginExec])
			roots[key.BC] = true
		}
		if key.BC == putPacked {
			ps.putPackedCalls += float64(s.Count)
		}
	}
	for key, s := range m.Target {
		ps.rdma += float64(s.Components[core.CompRDMA])
		ps.handlerWait += float64(s.Components[core.CompHandler])
		ps.inputDeser += float64(s.Components[core.CompInputDeser])
		ps.outputSer += float64(s.Components[core.CompOutputSer])
		ps.targetCB += float64(s.Components[core.CompTargetCB])
		if key.BC.Depth() > 1 {
			ps.nestedCalls += float64(s.Count)
		}
		if key.BC == putPacked {
			ps.putPackedExec += float64(s.Components[core.CompTargetExec])
		}
	}
	for bc := range roots {
		rep := m.Unaccounted(bc, d.rtt)
		ps.unaccounted += float64(rep.Unaccount)
	}
	for _, s := range analysis.MergeTraces(traces).BlockedULTSeries("") {
		if v := float64(s.Blocked); v > ps.blockedHWM {
			ps.blockedHWM = v
		}
	}
	return ps
}

// ---------------------------------------------------------------------
// HEPnOS data-loader deployments (Table IV C4 and C7).

type hepnosShape struct {
	batchSize         int
	maxInflight       int
	ofiMaxEvents      int
	dedicatedProgress bool
	// events is how many events each loader stores per rep, in one
	// dataloader.Run call.
	events int
}

const (
	hepnosServers   = 4
	hepnosStreams   = 16
	hepnosDatabases = 8
	hepnosLoaders   = 2
	hepnosEventSize = 512
)

type hepnosDeploy struct {
	*deploy
	shape   hepnosShape
	servers []*hepnos.Server
	infos   []hepnos.ServerInfo
	loaders []*margo.Instance
}

func newHEPnOS(shape hepnosShape) (*hepnosDeploy, error) {
	h := &hepnosDeploy{deploy: newDeploy(false), shape: shape}
	for i := 0; i < hepnosServers; i++ {
		inst, err := h.start(experiments.ProcessOptions{
			Mode: margo.ModeServer, Node: fmt.Sprintf("server-node%d", i/2),
			Name:           fmt.Sprintf("hepnos%d", i),
			HandlerStreams: hepnosStreams, OFIMaxEvents: shape.ofiMaxEvents,
		})
		if err != nil {
			return nil, err
		}
		srv, err := hepnos.NewServer(inst, hepnosDatabases, kvBackend, sdskv.Config{
			PutCostPerKey: modeledCost, GetCostPerKey: modeledCost, ListCostPerItem: modeledCost,
		})
		if err != nil {
			return nil, err
		}
		h.servers = append(h.servers, srv)
		h.infos = append(h.infos, hepnos.ServerInfo{Addr: srv.Addr(), DBIDs: srv.DBIDs})
	}
	for i := 0; i < hepnosLoaders; i++ {
		inst, err := h.start(experiments.ProcessOptions{
			Mode: margo.ModeClient, Node: fmt.Sprintf("client-node%d", i),
			Name:                fmt.Sprintf("loader%d", i),
			DedicatedProgressES: shape.dedicatedProgress, OFIMaxEvents: shape.ofiMaxEvents,
		})
		if err != nil {
			return nil, err
		}
		h.loaders = append(h.loaders, inst)
	}
	return h, nil
}

// load stores the first n events of one loader process's dataset, with
// payloads drawn from seed, and returns how many the loader reports
// stored. The loader derives an event's key from its own address and
// the event's index, so a second load overwrites the first one's keys.
func (h *hepnosDeploy) load(loader, n int, seed uint64) (uint64, error) {
	return dataloader.Run(h.loaders[loader], dataloader.Config{
		Events:      n,
		EventSize:   hepnosEventSize,
		BatchSize:   h.shape.batchSize,
		MaxInflight: h.shape.maxInflight,
		IssueCost:   modeledCost,
		Issuers:     1,
		Servers:     h.infos,
		Seed:        seed,
	})
}

func (h *hepnosDeploy) storedEvents() int {
	n := 0
	for _, s := range h.servers {
		n += s.StoredEvents()
	}
	return n
}

// readBack loads the given events of one loader's dataset back and counts
// those whose bytes differ from what the seeded generator produces.
// corrupt, when non-nil, alters a read value before the comparison (the
// unit tests inject a wrong read-back through it).
func (h *hepnosDeploy) readBack(loader int, seed uint64, events []int, corrupt func([]byte)) (mismatched int, err error) {
	inst := h.loaders[loader]
	gen := dataloader.NewEventGen("loader/"+inst.Addr(), hepnosEventSize, seed)
	client, err := hepnos.NewClient(inst, h.infos, hepnos.Options{BatchSize: 1})
	if err != nil {
		return 0, err
	}
	u := inst.Run("readback", func(self *abt.ULT) {
		for _, i := range events {
			key, want := gen.Event(i)
			got, found, lerr := client.LoadEvent(self, key)
			if lerr != nil {
				err = lerr
				return
			}
			if corrupt != nil {
				corrupt(got)
			}
			if !found || string(got) != string(want) {
				mismatched++
			}
		}
	})
	if jerr := u.Join(nil); jerr != nil {
		return mismatched, jerr
	}
	return mismatched, err
}

// ---------------------------------------------------------------------
// SDSKV deployment: one client, one server with four handler streams.

type kvDeploy struct {
	*deploy
	client *margo.Instance
	kvc    *sdskv.Client
	target string
	db     uint32
}

func newSDSKV(policy *batch.Policy) (*kvDeploy, error) {
	k := &kvDeploy{deploy: newDeploy(false)}
	srv, err := k.start(experiments.ProcessOptions{
		Mode: margo.ModeServer, Node: "kv-node", Name: "sdskv", HandlerStreams: 4,
	})
	if err != nil {
		return nil, err
	}
	prov, err := sdskv.RegisterProvider(srv, sdskv.Config{
		PutCostPerKey: modeledCost, GetCostPerKey: modeledCost, ListCostPerItem: modeledCost,
	})
	if err != nil {
		return nil, err
	}
	if k.db, err = prov.OpenLocal("bench", kvBackend); err != nil {
		return nil, err
	}
	k.target = srv.Addr()
	if k.client, err = k.start(experiments.ProcessOptions{
		Mode: margo.ModeClient, Node: "client-node", Name: "driver", Batch: policy,
	}); err != nil {
		return nil, err
	}
	if k.kvc, err = sdskv.NewClient(k.client); err != nil {
		return nil, err
	}
	return k, nil
}

// multiPolicy is the coalescer window of sdskv_multi.
func multiPolicy() *batch.Policy {
	return &batch.Policy{MaxOps: 64, MaxDelay: 200 * time.Microsecond}
}

// kvOps is the service-client surface an issuer ULT drives.
type kvOps struct {
	k    *kvDeploy
	self *abt.ULT
}

func (o kvOps) put(key, val []byte) error {
	return o.k.kvc.Put(o.self, o.k.target, o.k.db, key, val)
}

func (o kvOps) get(key []byte) ([]byte, bool, error) {
	return o.k.kvc.Get(o.self, o.k.target, o.k.db, key)
}

func (o kvOps) putMulti(keys, vals [][]byte) []error {
	return o.k.kvc.PutMulti(o.self, o.k.target, o.k.db, keys, vals)
}

func (o kvOps) getMulti(keys [][]byte) ([][]byte, []bool, []error) {
	return o.k.kvc.GetMulti(o.self, o.k.target, o.k.db, keys)
}

func (o kvOps) putPacked(keys, vals [][]byte) error {
	return o.k.kvc.PutPacked(o.self, o.k.target, o.k.db, keys, vals)
}

// issuers runs fn on n concurrent client ULTs and waits for all.
func (k *kvDeploy) issuers(n int, fn func(issuer int, ops kvOps)) error {
	ults := make([]*abt.ULT, n)
	for i := range ults {
		i := i
		ults[i] = k.client.Run(fmt.Sprintf("issuer-%d", i), func(self *abt.ULT) {
			fn(i, kvOps{k: k, self: self})
		})
	}
	return joinAll(ults)
}

func joinAll(ults []*abt.ULT) error {
	var first error
	for _, u := range ults {
		if err := u.Join(nil); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---------------------------------------------------------------------
// Mobject deployment (§V-A): one provider node and colocated ior ranks.

type mobDeploy struct {
	*deploy
	target  string
	ranks   []*margo.Instance
	clients []*mobject.Client
}

func newMobject(ranks int) (*mobDeploy, error) {
	m := &mobDeploy{deploy: newDeploy(true)}
	srv, err := m.start(experiments.ProcessOptions{
		Mode: margo.ModeServer, Node: "node0", Name: "mobject", HandlerStreams: 16,
	})
	if err != nil {
		return nil, err
	}
	if _, err := mobject.RegisterProviderNode(srv, kvBackend); err != nil {
		return nil, err
	}
	m.target = srv.Addr()
	for i := 0; i < ranks; i++ {
		inst, err := m.start(experiments.ProcessOptions{
			Mode: margo.ModeClient, Node: "node0", Name: fmt.Sprintf("ior%d", i),
		})
		if err != nil {
			return nil, err
		}
		c, err := mobject.NewClient(inst)
		if err != nil {
			return nil, err
		}
		m.ranks = append(m.ranks, inst)
		m.clients = append(m.clients, c)
	}
	return m, nil
}

type mobOps struct {
	m    *mobDeploy
	rank int
	self *abt.ULT
}

func (o mobOps) write(object string, data []byte) error {
	return o.m.clients[o.rank].WriteOp(o.self, o.m.target, object, data)
}

func (o mobOps) read(object string, buf []byte) (uint64, error) {
	return o.m.clients[o.rank].ReadOp(o.self, o.m.target, object, buf)
}

// eachRank runs fn on one ULT per ior rank and waits for all.
func (m *mobDeploy) eachRank(fn func(rank int, ops mobOps)) error {
	ults := make([]*abt.ULT, len(m.ranks))
	for i, inst := range m.ranks {
		i := i
		ults[i] = inst.Run(fmt.Sprintf("ior-rank-%d", i), func(self *abt.ULT) {
			fn(i, mobOps{m: m, rank: i, self: self})
		})
	}
	return joinAll(ults)
}

// ---------------------------------------------------------------------
// Analysis pipeline over dumps on disk (Table V).

// writeDumps writes every process's profile and trace dump into dir,
// the files the offline tools ingest, and returns the trace bytes.
func (d *deploy) writeDumps(dir string) (traceBytes int64, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	profiles, traces := d.cluster.Collect()
	for i, p := range profiles {
		if err := writeFile(filepath.Join(dir, fmt.Sprintf("p%02d.profile.json", i)), func(w io.Writer) error {
			return core.WriteProfile(w, p)
		}); err != nil {
			return 0, err
		}
	}
	for i, t := range traces {
		path := filepath.Join(dir, fmt.Sprintf("p%02d.trace.json", i))
		if err := writeFile(path, func(w io.Writer) error { return core.WriteTrace(w, t) }); err != nil {
			return 0, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return 0, err
		}
		traceBytes += st.Size()
	}
	return traceBytes, nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type analysisResult struct {
	requests, paths, incomplete int
	dropped                     uint64
}

// analyzeDumps is one analyst's pass over the dumps in dir: read, merge
// profiles, merge traces, extract critical paths, fold the flame, rank
// the dominant callpaths and render both reports to nowhere. Each stage
// is a span of the lane's enclosing pass.
func analyzeDumps(dir string, l *lane) (analysisResult, error) {
	var res analysisResult

	t := l.begin("analysis.read")
	profiles, traces, err := readDumps(dir)
	l.stage(t)
	if err != nil {
		return res, err
	}

	t = l.begin("analysis.merge_profiles")
	merged := analysis.Merge(profiles)
	l.stage(t)

	t = l.begin("analysis.merge_traces")
	ts := analysis.MergeTraces(traces)
	l.stage(t)

	t = l.begin("analysis.extract_paths")
	paths, stats := analysis.ExtractPaths(ts)
	l.stage(t)

	t = l.begin("analysis.fold_flame")
	flame := analysis.FoldPaths(paths)
	flame.Stats = stats
	rows := merged.DominantCallpaths(5)
	l.stage(t)

	t = l.begin("analysis.render")
	err = report.WriteCLI(io.Discard, report.FromFlame("analyze_c7", flame, 5))
	if err == nil {
		err = report.WriteCLI(io.Discard, report.FromProfile("analyze_c7", merged, 5))
	}
	l.stage(t)
	if err != nil {
		return res, err
	}
	if len(rows) == 0 {
		return res, fmt.Errorf("analysis found no dominant callpath")
	}

	res.requests = stats.Requests
	res.paths = len(paths)
	res.incomplete = stats.Incomplete + ts.IncompleteRequests()
	res.dropped = ts.Dropped
	return res, nil
}

func readDumps(dir string) ([]*core.ProfileDump, []*core.TraceDump, error) {
	var profiles []*core.ProfileDump
	var traces []*core.TraceDump
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(name, ".profile.json") {
			p, rerr := core.ReadProfile(f)
			if rerr != nil {
				f.Close()
				return nil, nil, fmt.Errorf("read %s: %w", name, rerr)
			}
			profiles = append(profiles, p)
		} else {
			t, rerr := core.ReadTrace(f)
			if rerr != nil {
				f.Close()
				return nil, nil, fmt.Errorf("read %s: %w", name, rerr)
			}
			traces = append(traces, t)
		}
		f.Close()
	}
	return profiles, traces, nil
}

// ---------------------------------------------------------------------
// Probes: each times one layer's public functions in isolation, with
// the message shape of the workload being traced.

// probeShape is the message shape a workload puts on the wire.
type probeShape struct {
	keyBytes, valueBytes int // one request's key and value
	bulkBytes            int // one bulk transfer (0: the workload has none)
	kvPreload            int // keys resident in the backend
}

// probePayload is a KV-request-shaped argument struct.
type probePayload struct {
	DB    uint32
	Key   []byte
	Value []byte
}

func (a *probePayload) Proc(p *mercury.Proc) error {
	if err := p.Uint32(&a.DB); err != nil {
		return err
	}
	if err := p.Bytes(&a.Key); err != nil {
		return err
	}
	return p.Bytes(&a.Value)
}

func (s probeShape) payload() *probePayload {
	return &probePayload{DB: 7, Key: make([]byte, s.keyBytes), Value: make([]byte, s.valueBytes)}
}

func (s probeShape) wireBytes() int { return 4 + 8 + s.keyBytes + s.valueBytes }

// timing is what timed measured: nanoseconds per call and allocations
// per call.
type timing struct{ medianNS, meanNS, allocs float64 }

// timed runs fn n times, timing each call.
func timed(n int, fn func()) timing {
	samples := make([]float64, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var sum float64
	for i := range samples {
		t := time.Now()
		fn()
		samples[i] = float64(time.Since(t).Nanoseconds())
		sum += samples[i]
	}
	runtime.ReadMemStats(&m1)
	return timing{median(samples), sum / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)}
}

// timedChunks is timed for calls too short to time singly: each sample
// is the mean of chunk calls.
func timedChunks(n, chunk int, fn func()) timing {
	t := timed(n, func() {
		for i := 0; i < chunk; i++ {
			fn()
		}
	})
	c := float64(chunk)
	return timing{t.medianNS / c, t.meanNS / c, t.allocs / c}
}

func fabricDelay(cfg na.Config, size int) time.Duration {
	d := cfg.LatencyRemote
	if cfg.Bandwidth > 0 {
		d += time.Duration(float64(size) / cfg.Bandwidth * float64(time.Second))
	}
	return d
}

type naProbe struct{ sendToCQUS, rdmaGetUS, allocsPerMsg float64 }

// probeNA times one message from Send to the receiver's completion
// queue and one RDMA get, each net of the modeled transfer delay.
func probeNA(s probeShape) (naProbe, error) {
	cfg := experiments.DefaultFabric()
	f := na.NewFabric(cfg)
	a, err := f.NewEndpoint("probe-a", "ep")
	if err != nil {
		return naProbe{}, err
	}
	b, err := f.NewEndpoint("probe-b", "ep")
	if err != nil {
		return naProbe{}, err
	}
	defer a.Close()
	defer b.Close()
	buf := make([]na.Event, 0, 16)
	// The wait yields between polls, as a progress ULT does, so the
	// timers that model the transfer fire on time on this thread too.
	await := func(ep *na.Endpoint, kind na.EventKind) {
		for {
			for _, ev := range ep.PollInto(buf, 16) {
				if ev.Kind == kind {
					return
				}
			}
			runtime.Gosched()
		}
	}
	msg := make([]byte, s.wireBytes())
	send := timed(2000, func() {
		a.Send(b.Addr(), na.TagUnexpected, msg, nil)
		await(b, na.EvRecv)
		a.PollInto(buf, 16) // drain the sender's EvSendDone
	})
	size := s.bulkBytes
	if size == 0 {
		size = 4096
	}
	remote := make([]byte, size)
	local := make([]byte, size)
	h := a.RegisterMemory(remote)
	defer a.DeregisterMemory(h)
	get := timed(1000, func() {
		b.Get(h, 0, local, nil)
		await(b, na.EvRDMADone)
	})
	return naProbe{
		sendToCQUS:   (send.medianNS - float64(fabricDelay(cfg, len(msg)))) / 1e3,
		rdmaGetUS:    (get.medianNS - float64(fabricDelay(cfg, size))) / 1e3,
		allocsPerMsg: send.allocs,
	}, nil
}

type mercuryProbe struct {
	encodeNS, decodeNS, codecAllocs, batchAddNS float64
	rttUS, rttSelfUS, allocsPerRTT              float64
}

// probeMercury times the codec on the workload's payload, one batch
// frame append, and a Class-only echo round trip with the harness
// driving Progress and Trigger on both sides.
func probeMercury(s probeShape, naSelfUS float64) (mercuryProbe, error) {
	var p mercuryProbe
	in := s.payload()
	buf := make([]byte, 0, 2*s.wireBytes()+64)
	wire, err := mercury.Encode(in)
	if err != nil {
		return p, err
	}
	dst := &probePayload{Key: make([]byte, 0, s.keyBytes), Value: make([]byte, 0, s.valueBytes)}
	enc := timedChunks(400, 256, func() {
		if _, err := mercury.AppendEncode(buf[:0], in); err != nil {
			panic(err)
		}
	})
	dec := timedChunks(400, 256, func() {
		if err := mercury.Decode(wire, dst); err != nil {
			panic(err)
		}
	})
	p.encodeNS, p.decodeNS, p.codecAllocs = enc.medianNS, dec.medianNS, enc.allocs+dec.allocs

	bb := mercury.AcquireBatch()
	meta := mercury.Meta{RequestID: 1, Breadcrumb: 2}
	add := timed(400, func() {
		bb.Reset()
		for i := 0; i < 64; i++ {
			if err := bb.Add(in, meta); err != nil {
				panic(err)
			}
		}
	})
	p.batchAddNS = add.medianNS / 64
	bb.Release()

	cfg := experiments.DefaultFabric()
	f := na.NewFabric(cfg)
	cep, err := f.NewEndpoint("probe-c", "cli")
	if err != nil {
		return p, err
	}
	sep, err := f.NewEndpoint("probe-s", "srv")
	if err != nil {
		return p, err
	}
	defer cep.Close()
	defer sep.Close()
	client, server := mercury.NewClass(cep, mercury.Config{}), mercury.NewClass(sep, mercury.Config{})
	const rpc = "probe_echo"
	if err := server.Register(rpc, func(h *mercury.Handle) {
		var got probePayload
		if err := h.GetInput(&got); err != nil {
			panic(err)
		}
		if err := h.Respond(&got, mercury.Meta{}, nil); err != nil {
			panic(err)
		}
	}); err != nil {
		return p, err
	}
	if err := client.Register(rpc, nil); err != nil {
		return p, err
	}
	var out probePayload
	rtt := timed(2000, func() {
		h, err := client.Create(server.Addr(), rpc)
		if err != nil {
			panic(err)
		}
		done := false
		if err := h.Forward(in, mercury.Meta{}, func(h *mercury.Handle, err error) {
			if err == nil {
				err = h.GetOutput(&out)
			}
			if err != nil {
				panic(err)
			}
			done = true
		}); err != nil {
			panic(err)
		}
		for !done {
			moved := server.Progress(0) + server.Trigger(16) + client.Progress(0) + client.Trigger(16)
			if moved == 0 {
				runtime.Gosched()
			}
		}
		h.Destroy()
	})
	modeled := float64(2 * fabricDelay(cfg, s.wireBytes()))
	p.rttUS = rtt.medianNS / 1e3
	p.rttSelfUS = (rtt.medianNS-modeled)/1e3 - 2*naSelfUS
	p.allocsPerRTT = rtt.allocs
	return p, nil
}

type abtProbe struct {
	quantumSwitchNS, spawnToRunUS, eventualWakeUS, allocsPerSpawn float64
}

// probeABT times a yield quantum, the spawn-to-first-run delay of a
// ULT, the wake of a ULT parked on an eventual, and the allocations of
// a steady-state detached spawn.
func probeABT() abtProbe {
	var p abtProbe
	rt := abt.NewRuntime()
	pool := rt.AddPool("probe")
	rt.AddXStreams("probe-es", 2, pool)
	defer rt.Shutdown()

	const yields = 256
	done := make(chan struct{})
	spin := func(self *abt.ULT) {
		for i := 0; i < yields; i++ {
			self.Yield()
		}
		done <- struct{}{}
	}
	run := func() {
		pool.CreateDetached("q", spin)
		<-done
	}
	run()
	p.quantumSwitchNS = timed(400, run).medianNS / yields

	spawn := make([]float64, 2000)
	for i := range spawn {
		u := pool.Create("s", func(*abt.ULT) {})
		if err := u.Join(nil); err != nil {
			panic(err)
		}
		spawn[i] = float64(u.FirstRunTime().Sub(u.SpawnTime()).Nanoseconds()) / 1e3
	}
	p.spawnToRunUS = median(spawn)

	// The wake is timed on a busy stream, as a forward sees it: the
	// waiter parks on an eventual, and a second ULT of the same stream
	// (standing in for the progress ULT, which runs only once the waiter
	// has parked) sets it. The sample runs from the set to the waiter
	// running again.
	single := rt.AddPool("probe-wake")
	rt.AddXStreams("probe-wake-es", 1, single)
	wake := make([]float64, 2000)
	for i := range wake {
		ev := abt.NewEventual()
		var set, woke time.Time
		waiter := single.Create("w", func(self *abt.ULT) {
			ev.Wait(self)
			woke = time.Now()
		})
		setter := single.Create("s", func(self *abt.ULT) {
			self.Yield()
			set = time.Now()
			ev.Set(nil)
		})
		if err := joinAll([]*abt.ULT{waiter, setter}); err != nil {
			panic(err)
		}
		wake[i] = float64(woke.Sub(set).Nanoseconds()) / 1e3
	}
	p.eventualWakeUS = median(wake)

	noop := func(*abt.ULT) { done <- struct{}{} }
	one := func() {
		pool.CreateDetached("d", noop)
		<-done
	}
	one()
	p.allocsPerSpawn = timed(4000, one).allocs
	return p
}

type margoProbe struct {
	forwardRTTUS, forwardMeanUS, forwardAllocs float64
	// profileMeanUS is the same forwards' mean origin execution time
	// (t1→t14) as the probe's own profile reports it.
	profileMeanUS float64
}

// probeMargo times sequential echo forwards between two processes on
// different nodes, with the workload's payload, at StageFull.
func probeMargo(s probeShape) (margoProbe, error) {
	var p margoProbe
	d := newDeploy(false)
	defer d.shutdown()
	srv, err := d.start(experiments.ProcessOptions{Mode: margo.ModeServer, Node: "probe-s", Name: "srv", HandlerStreams: 4})
	if err != nil {
		return p, err
	}
	cli, err := d.start(experiments.ProcessOptions{Mode: margo.ModeClient, Node: "probe-c", Name: "cli"})
	if err != nil {
		return p, err
	}
	const rpc = "probe_echo"
	if err := srv.Register(rpc, func(ctx *margo.Context) {
		var got probePayload
		if err := ctx.GetInput(&got); err != nil {
			ctx.RespondError("decode: %v", err)
			return
		}
		ctx.Respond(&got)
	}); err != nil {
		return p, err
	}
	if err := cli.RegisterClient(rpc); err != nil {
		return p, err
	}
	in := s.payload()
	var out probePayload
	var ferr error
	const calls = 4000
	u := cli.Run("probe", func(self *abt.ULT) {
		forward := func() {
			if err := cli.Forward(self, srv.Addr(), rpc, in, &out); err != nil && ferr == nil {
				ferr = err
			}
		}
		for i := 0; i < 200; i++ {
			forward()
		}
		cli.Profiler().ResetMeasurements()
		t := timed(calls, forward)
		p.forwardRTTUS, p.forwardMeanUS, p.forwardAllocs = t.medianNS/1e3, t.meanNS/1e3, t.allocs
	})
	if err := u.Join(nil); err != nil {
		return p, err
	}
	if ferr != nil {
		return p, ferr
	}
	for _, s := range cli.Profiler().OriginStats() {
		if s.Count > 0 {
			p.profileMeanUS = float64(s.Components[core.CompOriginExec]) / float64(s.Count) / 1e3
		}
	}
	return p, nil
}

type coreProbe struct{ recordNS float64 }

// probeCore times what one RPC costs the measurement pipeline on the
// origin: its two trace events and its profile record.
func probeCore() coreProbe {
	prof := core.NewProfiler("probe", core.StageFull)
	bc := core.Breadcrumb(0).Push("probe_rpc")
	var comps [core.NumComponents]uint64
	id := uint64(0)
	t := timedChunks(200, 256, func() {
		id++
		prof.Emit(core.Event{RequestID: id, Kind: core.EvOriginStart, Entity: "probe", RPCName: "probe_rpc", Breadcrumb: uint64(bc)})
		prof.RecordOrigin(bc, "peer", time.Microsecond, &comps)
		prof.Emit(core.Event{RequestID: id, Kind: core.EvOriginEnd, Entity: "probe", RPCName: "probe_rpc", Breadcrumb: uint64(bc), Duration: 1000})
	})
	return coreProbe{recordNS: t.medianNS}
}

type kvProbe struct{ putNS, getNS, allocsPerPut float64 }

// probeKV times puts and gets straight on the backend the services
// use, with the workload's key shape, value size and resident key count.
func probeKV(s probeShape) (kvProbe, error) {
	var p kvProbe
	db, err := kv.Open(kvBackend, "probe")
	if err != nil {
		return p, err
	}
	defer db.Close()
	n := s.kvPreload
	if n < 1024 {
		n = 1024
	}
	keys := make([][]byte, n)
	val := make([]byte, s.valueBytes)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%0*d", s.keyBytes, i))
		if err := db.Put(keys[i], val); err != nil {
			return p, err
		}
	}
	i := 0
	next := func() []byte {
		i = (i + 7919) % n
		return keys[i]
	}
	put := timedChunks(200, 256, func() {
		if err := db.Put(next(), val); err != nil {
			panic(err)
		}
	})
	get := timedChunks(200, 256, func() {
		if _, _, err := db.Get(next()); err != nil {
			panic(err)
		}
	})
	p.putNS, p.getNS, p.allocsPerPut = put.medianNS, get.medianNS, put.allocs
	return p, nil
}

// onAll runs fn concurrently, once per index, and returns the first
// error.
func onAll(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
