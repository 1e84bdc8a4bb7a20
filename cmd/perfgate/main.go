// Command perfgate measures the RPC hot path and gates commits on the
// result. It has two modes:
//
//	perfgate -write   run the scenarios and emit BENCH_<date>.json
//	perfgate -gate    run the scenarios and compare against the most
//	                  recent committed BENCH_*.json, exiting non-zero
//	                  on a regression (>10% time, any meaningful
//	                  allocs/op growth)
//
// The scenarios cover the layers the batching work touches: raw proc
// encode/decode through the pooled arenas, batch-frame building, and
// end-to-end forwards over the simulated fabric with and without the
// coalescer. Each scenario runs several times and keeps the fastest
// run, the standard defense against scheduler noise in a shared
// container.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/analysis"
	"symbiosys/internal/batch"
	"symbiosys/internal/core"
	"symbiosys/internal/kv"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
)

// ScenarioResult is one row of the benchmark report.
type ScenarioResult struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
	P50Ns       float64 `json:"p50_ns"`
	P99Ns       float64 `json:"p99_ns"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Report is the BENCH_<date>.json schema.
type Report struct {
	Date      string           `json:"date"`
	GoVersion string           `json:"go_version"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// Gate tolerances: time regressions beyond 10% plus a 15ns absolute
// slack fail — the absolute term absorbs scheduler jitter on the
// nanosecond-scale codec scenarios (10% of 36ns is below container
// noise) while staying negligible against the µs/ms-scale forward
// scenarios. Allocs/op may not grow beyond 10% plus half an
// allocation of absolute slack (so pinned zero-alloc scenarios stay
// effectively strict while amortized end-to-end counts tolerate
// jitter).
const (
	timeTolerance  = 0.10
	timeSlackNs    = 15.0
	allocTolerance = 0.10
	allocSlack     = 0.5
)

func main() {
	var (
		write = flag.Bool("write", false, "emit BENCH_<date>.json into -dir")
		gate  = flag.Bool("gate", false, "compare against newest BENCH_*.json in -dir")
		dir   = flag.String("dir", ".", "directory holding BENCH_*.json baselines")
		runs  = flag.Int("runs", 3, "repetitions per scenario (fastest kept)")
	)
	flag.Parse()
	if !*write && !*gate {
		fmt.Fprintln(os.Stderr, "perfgate: need -write or -gate")
		os.Exit(2)
	}

	rep := Report{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
	}
	for _, sc := range scenarios() {
		best := ScenarioResult{Name: sc.name}
		for r := 0; r < *runs; r++ {
			res := sc.run()
			if r == 0 || res.NsPerOp < best.NsPerOp {
				res.Name = sc.name
				best = res
			}
		}
		fmt.Printf("%-28s %12.0f ns/op %14.0f ops/s %8.1f allocs/op  p50=%.0fns p99=%.0fns\n",
			best.Name, best.NsPerOp, best.OpsPerSec, best.AllocsPerOp, best.P50Ns, best.P99Ns)
		rep.Scenarios = append(rep.Scenarios, best)
	}

	if *gate {
		basePath, base, err := newestBaseline(*dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
			os.Exit(1)
		}
		fails := compare(base, &rep)
		fmt.Printf("\ngate: comparing against %s\n", filepath.Base(basePath))
		if len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Println("gate: ok (no regressions beyond tolerance)")
	}

	if *write {
		out := filepath.Join(*dir, "BENCH_"+rep.Date+".json")
		buf, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(out, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", out)
	}
}

// newestBaseline loads the lexically newest BENCH_*.json (the names
// embed an ISO date, so lexical order is chronological).
func newestBaseline(dir string) (string, *Report, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", nil, err
	}
	if len(matches) == 0 {
		return "", nil, fmt.Errorf("no BENCH_*.json baseline in %s (run 'make bench-json' and commit the result)", dir)
	}
	sort.Strings(matches)
	path := matches[len(matches)-1]
	buf, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return "", nil, fmt.Errorf("%s: %v", path, err)
	}
	return path, &rep, nil
}

// compare returns one message per regression of cur against base.
// Scenarios new in cur pass (no baseline yet); scenarios that vanished
// from cur fail (the gate must not silently lose coverage).
func compare(base, cur *Report) []string {
	curBy := map[string]ScenarioResult{}
	for _, s := range cur.Scenarios {
		curBy[s.Name] = s
	}
	var fails []string
	for _, b := range base.Scenarios {
		c, ok := curBy[b.Name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: scenario missing from current run", b.Name))
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+timeTolerance)+timeSlackNs {
			fails = append(fails, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.1f%%, tolerance %.0f%% + %.0fns)",
				b.Name, c.NsPerOp, b.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), 100*timeTolerance, timeSlackNs))
		}
		if c.AllocsPerOp > b.AllocsPerOp*(1+allocTolerance)+allocSlack {
			fails = append(fails, fmt.Sprintf("%s: %.2f allocs/op vs baseline %.2f",
				b.Name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return fails
}

// ---------------------------------------------------------------------
// Scenarios.

type scenario struct {
	name string
	run  func() ScenarioResult
}

func scenarios() []scenario {
	return []scenario{
		{"proc_encode", runProcEncode},
		{"proc_decode", runProcDecode},
		{"batch_add", runBatchAdd},
		{"quantum_switch", runQuantumSwitch},
		{"pool_contention", runPoolContention},
		{"forward_unbatched", func() ScenarioResult { return runForward(nil, 512, 1) }},
		{"forward_batched_w64", func() ScenarioResult {
			return runForward(&batch.Policy{MaxOps: 64, MaxDelay: 200 * time.Microsecond}, 4096, 64)
		}},
		{"critical_path_extract", runCriticalPathExtract},
		{"route_lookup", runRouteLookup},
	}
}

// kvPayload is a representative KV request body.
type kvPayload struct {
	DB    uint32
	Key   []byte
	Value []byte
}

func (a *kvPayload) Proc(p *mercury.Proc) error {
	if err := p.Uint32(&a.DB); err != nil {
		return err
	}
	if err := p.Bytes(&a.Key); err != nil {
		return err
	}
	return p.Bytes(&a.Value)
}

func samplePayload() *kvPayload {
	return &kvPayload{DB: 7, Key: []byte("bench/key/000123"), Value: make([]byte, 256)}
}

// measure times fn (which performs ops operations), sampling latency in
// chunks: fn is called once per chunk and each call's mean per-op time
// is one percentile sample.
func measure(name string, chunks, opsPerChunk int, fn func()) ScenarioResult {
	samples := make([]float64, 0, chunks)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for c := 0; c < chunks; c++ {
		s := time.Now()
		fn()
		samples = append(samples, float64(time.Since(s).Nanoseconds())/float64(opsPerChunk))
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	ops := chunks * opsPerChunk
	sort.Float64s(samples)
	pct := func(q float64) float64 {
		if len(samples) == 0 {
			return 0
		}
		i := int(q * float64(len(samples)-1))
		return samples[i]
	}
	return ScenarioResult{
		Name:        name,
		Ops:         ops,
		OpsPerSec:   float64(ops) / elapsed.Seconds(),
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		P50Ns:       pct(0.50),
		P99Ns:       pct(0.99),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
	}
}

func runProcEncode() ScenarioResult {
	in := samplePayload()
	buf := make([]byte, 0, 4096)
	// Warm the pools once so the measured loop sees the steady state.
	if _, err := mercury.AppendEncode(buf, in); err != nil {
		panic(err)
	}
	const chunk = 256
	return measure("proc_encode", 400, chunk, func() {
		for i := 0; i < chunk; i++ {
			out, err := mercury.AppendEncode(buf[:0], in)
			if err != nil {
				panic(err)
			}
			_ = out
		}
	})
}

func runProcDecode() ScenarioResult {
	in := samplePayload()
	wire, err := mercury.Encode(in)
	if err != nil {
		panic(err)
	}
	// Byte slices decode as views of wire, so the destination needs no
	// capacity of its own.
	dst := &kvPayload{}
	if err := mercury.Decode(wire, dst); err != nil {
		panic(err)
	}
	const chunk = 256
	return measure("proc_decode", 400, chunk, func() {
		for i := 0; i < chunk; i++ {
			if err := mercury.Decode(wire, dst); err != nil {
				panic(err)
			}
		}
	})
}

func runBatchAdd() ScenarioResult {
	in := samplePayload()
	b := mercury.AcquireBatch()
	defer b.Release()
	meta := mercury.Meta{RequestID: 1, Breadcrumb: 2, DeadlineNanos: 0, Priority: 0}
	const chunk = 64
	return measure("batch_add", 400, chunk, func() {
		b.Reset()
		for i := 0; i < chunk; i++ {
			if err := b.Add(in, meta); err != nil {
				panic(err)
			}
		}
	})
}

// twoHopTraceEvents fabricates one clean two-hop request (client →
// mid-tier → leaf) with queue waits on both target starts. The shape
// mirrors twoHopEvents in internal/analysis/path_test.go — keep the
// workloads in sync so BenchmarkExtractPaths and this scenario track
// the same code path.
func twoHopTraceEvents(reqID uint64, base int64) []core.Event {
	bcMid := core.Breadcrumb(0).Push("a_rpc")
	bcLeaf := bcMid.Push("b_rpc")
	evs := []core.Event{
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bcMid)},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 100,
			Entity: "mid", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), QueueNanos: 40},
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base + 200,
			Entity: "mid", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf)},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 300,
			Entity: "leaf", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), QueueNanos: 30},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 400,
			Entity: "leaf", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), Duration: 100},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 500,
			Entity: "mid", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), Duration: 300},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 600,
			Entity: "mid", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), Duration: 500},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 700,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), Duration: 700},
	}
	for i := range evs {
		evs[i].Order = uint64(i + 1)
	}
	return evs
}

// runCriticalPathExtract measures the analysis plane's per-request
// critical-path extraction over a merged 64-request two-hop trace set
// — the per-op cost of turning raw span trees into attributed path
// segments, which every flame and diff report pays up front.
func runCriticalPathExtract() ScenarioResult {
	var dumps []*core.TraceDump
	for i := 0; i < 64; i++ {
		dumps = append(dumps, &core.TraceDump{
			Entity: "d", Events: twoHopTraceEvents(uint64(i+1), 1_000_000_000+int64(i)*10_000),
		})
	}
	ts := analysis.MergeTraces(dumps)
	// One warmup extraction primes the per-request grouping maps.
	if paths, _ := analysis.ExtractPaths(ts); len(paths) != 64 {
		panic("critical_path_extract: warmup extracted wrong path count")
	}
	const chunk = 8
	return measure("critical_path_extract", 400, chunk, func() {
		for i := 0; i < chunk; i++ {
			paths, _ := analysis.ExtractPaths(ts)
			if len(paths) != 64 {
				panic("critical_path_extract: wrong path count")
			}
		}
	})
}

// runRouteLookup measures the elastic routing hot path: one rendezvous
// Ring.Owner resolution per op over a 16-member ring with realistic
// keys. Every client put/get and every migration sweep pays this cost
// per key, so it must stay zero-alloc and tens of nanoseconds.
func runRouteLookup() ScenarioResult {
	members := make([]string, 16)
	for i := range members {
		members[i] = fmt.Sprintf("elastic-kv%d/ekv%d", i, i)
	}
	ring := kv.NewRing(1, members)
	keys := make([][]byte, 512)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("dataset/run%02d/event%06d", i%5, i))
	}
	const chunk = 512
	return measure("route_lookup", 400, chunk, func() {
		for i := 0; i < chunk; i++ {
			if ring.Owner(keys[i]) == "" {
				panic("route_lookup: empty owner")
			}
		}
	})
}

// runQuantumSwitch measures the scheduler's context-switch cost: one
// execution stream running a detached ULT through a burst of yields.
// Each op is one quantum switch (yield disposition, requeue into the
// stream's local ring, next run grant); the free list and persistent
// worker goroutine keep the steady state allocation-free, which the
// gate's allocs/op comparison pins.
func runQuantumSwitch() ScenarioResult {
	rt := abt.NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", 1, p)
	defer rt.Shutdown()

	const yields = 256
	done := make(chan struct{})
	body := func(self *abt.ULT) {
		for i := 0; i < yields; i++ {
			self.Yield()
		}
		done <- struct{}{}
	}
	spawnRun := func() {
		p.CreateDetached("q", body)
		<-done
	}
	spawnRun() // warm the free list and worker goroutine
	return measure("quantum_switch", 400, yields, spawnRun)
}

// runPoolContention measures the shared-pool handoff under contention:
// four goroutines push detached ULTs into one pool drained by four
// execution streams, exercising the inject queue, wake propagation,
// steals, and park/unpark — the server-side dispatch path of a busy
// handler pool.
func runPoolContention() ScenarioResult {
	rt := abt.NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", 4, p)
	defer rt.Shutdown()

	const batch = 256
	const pushers = 4
	done := make(chan struct{}, batch)
	body := func(self *abt.ULT) {
		self.Yield()
		done <- struct{}{}
	}
	fn := func() {
		var wg sync.WaitGroup
		for g := 0; g < pushers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < batch/pushers; i++ {
					p.CreateDetached("c", body)
				}
			}()
		}
		wg.Wait()
		for i := 0; i < batch; i++ {
			<-done
		}
	}
	fn() // warm the free list and worker goroutines
	return measure("pool_contention", 200, batch, fn)
}

// runForward measures end-to-end echo RPCs over the simulated fabric:
// pol==nil issues sequential Forwards; otherwise ops are issued through
// ForwardMany in window-sized groups so the coalescer vectors them.
func runForward(pol *batch.Policy, ops, window int) ScenarioResult {
	const rpcEcho = "perf_echo"
	f := na.NewFabric(na.DefaultConfig())
	srv, err := margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "ps", Name: "srv", Fabric: f, HandlerStreams: 4,
	})
	if err != nil {
		panic(err)
	}
	defer srv.Shutdown()
	cli, err := margo.New(margo.Options{
		Mode: margo.ModeClient, Node: "pc", Name: "cli", Fabric: f, Batch: pol,
	})
	if err != nil {
		panic(err)
	}
	defer cli.Shutdown()
	if err := srv.Register(rpcEcho, func(ctx *margo.Context) {
		var in kvPayload
		if err := ctx.GetInput(&in); err != nil {
			ctx.RespondError("decode: %v", err)
			return
		}
		ctx.Respond(&in)
	}); err != nil {
		panic(err)
	}
	if err := cli.RegisterClient(rpcEcho); err != nil {
		panic(err)
	}

	name := "forward_unbatched"
	if pol != nil {
		name = fmt.Sprintf("forward_batched_w%d", window)
	}
	target := srv.Addr()
	chunks := ops / window

	var res ScenarioResult
	u := cli.Run("perfgate", func(self *abt.ULT) {
		in := samplePayload()
		var out kvPayload
		// One warmup round trip primes registries, pools, and arenas.
		if err := cli.Forward(self, target, rpcEcho, in, &out); err != nil {
			panic(err)
		}
		if pol == nil {
			res = measure(name, chunks, window, func() {
				if err := cli.Forward(self, target, rpcEcho, in, &out); err != nil {
					panic(err)
				}
			})
			return
		}
		ins := make([]mercury.Procable, window)
		outs := make([]mercury.Procable, window)
		bodies := make([]kvPayload, window)
		for i := range ins {
			p := samplePayload()
			ins[i] = p
			outs[i] = &bodies[i]
		}
		res = measure(name, chunks, window, func() {
			for _, err := range cli.ForwardMany(self, target, rpcEcho, ins, outs) {
				if err != nil {
					panic(err)
				}
			}
		})
	})
	if err := u.Join(nil); err != nil {
		panic(err)
	}
	return res
}
