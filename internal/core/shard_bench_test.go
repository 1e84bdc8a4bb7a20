package core

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchContended measures concurrent RecordOriginAt+EmitSampled
// throughput with `workers` goroutines hammering a Profiler of `shards`
// shards, each worker keyed by its own id (the ULT-id keying the Margo
// hot path uses). shards=1 is a single-mutex Profiler: every worker
// funnels through one lock. The per-op work is identical across
// shard counts, so the ratio isolates lock contention.
func benchContended(b *testing.B, shards, workers int) {
	// Give each worker an OS thread even on a small host: the paper's
	// contention story is N execution streams recording in parallel,
	// and (like the rest of this repo's simulation) oversubscribing a
	// 1-core VM reproduces the lock-holder preemption and futex
	// handoffs a real N-core deployment sees on a shared mutex.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	p := newProfiler("contended/p", StageFull, shards, 1<<16)
	bc := Breadcrumb(0).Push("contended_rpc")
	var comps [NumComponents]uint64
	comps[CompOriginExec] = 1000

	var next atomic.Uint64
	per := b.N/workers + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := next.Add(1) // distinct ULT id per worker
			ev := Event{RequestID: key, Kind: EvOriginEnd, RPCName: "contended_rpc", Timestamp: 1}
			for i := 0; i < per; i++ {
				p.RecordOriginAt(key, bc, "peer", time.Microsecond, &comps)
				p.EmitSampled(key, ev, nil, nil)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	ops := float64(workers*per) * 2 // one record + one emit per iteration
	b.ReportMetric(ops/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkContendedRecording is the recording-bottleneck study behind
// this repo's sharding decision: N concurrent recorders × {1, 8}
// shards. The single-shard case is one process-wide mutex; the sharded
// case is what Margo's per-ULT keying hits.
func BenchmarkContendedRecording(b *testing.B) {
	for _, workers := range []int{1, 4, 8, 16} {
		for _, shards := range []int{1, 8} {
			b.Run(fmt.Sprintf("workers=%d/shards=%d", workers, shards), func(b *testing.B) {
				benchContended(b, shards, workers)
			})
		}
	}
}

// BenchmarkRecordOriginSharded measures the uncontended path keyed by
// execution stream, for comparison with BenchmarkRecordOrigin (keyed by
// callpath).
func BenchmarkRecordOriginSharded(b *testing.B) {
	p := newProfiler("bench/p", StageFull, 8, 16)
	bc := Breadcrumb(0).Push("x_rpc")
	var comps [NumComponents]uint64
	comps[CompOriginExec] = 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RecordOriginAt(7, bc, "peer", time.Microsecond, &comps)
	}
}

// BenchmarkEmitSharded measures one trace-event append (shard select,
// lock, record append).
func BenchmarkEmitSharded(b *testing.B) {
	p := newProfiler("bench/p", StageFull, 8, 8*(b.N+1))
	ev := Event{RequestID: 1, Kind: EvOriginStart, RPCName: "x_rpc", Timestamp: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EmitSampled(7, ev, nil, nil)
	}
}

// BenchmarkEmitAnnotated measures one fully annotated origin-end event
// (PVAR sample and component breakdown on the caller's stack), the
// shape of the RPC fast path at StageFull.
func BenchmarkEmitAnnotated(b *testing.B) {
	p := newProfiler("bench/p", StageFull, 8, 8*(b.N+1)) // every event lands in one shard
	ev, pv, comps := annotatedEvent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.RequestID++
		ev.Order += 2
		ev.Timestamp += 41_000
		p.EmitSampled(7, ev, &pv, &comps)
	}
}

// BenchmarkEmitJSONLSink is BenchmarkEmitAnnotated with a live JSONL
// sink attached: what streaming the trace adds to each event.
func BenchmarkEmitJSONLSink(b *testing.B) {
	p := newProfiler("bench/p", StageFull, 8, 8*(b.N+1))
	p.AddTraceSink(NewJSONLTraceSink(io.Discard))
	ev, pv, comps := annotatedEvent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.RequestID++
		ev.Order += 2
		ev.Timestamp += 41_000
		p.EmitSampled(7, ev, &pv, &comps)
	}
}

// annotatedEvent is a t14 event as margo emits it at StageFull.
func annotatedEvent() (Event, PVarSample, [NumComponents]uint64) {
	ev := Event{
		RequestID: 4242<<32 | 1, Order: 17, Kind: EvOriginEnd, Timestamp: 1_700_000_000_000_000_000,
		Entity: "n0/loader0", Peer: "n2/server1", RPCName: "sdskv_put_packed",
		Breadcrumb: uint64(Breadcrumb(0).Push("sdskv_put_packed")), Duration: 38_500,
		Sys: SysSample{PoolRunnable: 3, PoolBlocked: 61, HeapBytes: 48 << 20, Goroutines: 212},
	}
	pv := PVarSample{
		OFIEventsRead: 7, CompletionQueue: 3, PostedHandles: 64,
		InputSerNanos: 310, OriginCBNanos: 2_400, RPCsInvokedTotal: 123_456,
	}
	var comps [NumComponents]uint64
	comps[CompOriginExec], comps[CompInputSer], comps[CompOriginCB] = 38_500, 310, 2_400
	return ev, pv, comps
}
