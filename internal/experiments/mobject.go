package experiments

import (
	"fmt"
	"sync"
	"time"

	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/services/mobject"
	"symbiosys/internal/workload/ior"
)

// MobjectConfig reproduces the paper's §V-A setup: a single Mobject
// provider node and colocated ior clients on the same physical node.
type MobjectConfig struct {
	Clients      int // paper: 10
	Segments     int // objects written+read per client
	TransferSize int // bytes per object
}

// MobjectResult carries the Figure 5 and Figure 6 artifacts.
type MobjectResult struct {
	Config   MobjectConfig
	WallTime time.Duration

	// Top callpaths by cumulative latency (Figure 6).
	Dominant []analysis.CallpathRow

	// WriteTraceRequestID identifies one complete mobject_write_op
	// request; WriteSpans are its reconstructed spans and ZipkinJSON the
	// exported visualization file (Figure 5).
	WriteTraceRequestID uint64
	WriteSpans          []analysis.Span
	Traces              *analysis.TraceSet
	Profile             *analysis.MergedProfile

	// Raw per-process dumps for the offline tools.
	ProfileDumps []*core.ProfileDump
	TraceDumps   []*core.TraceDump
}

// NestedWriteCalls counts the discrete microservice calls inside the
// traced write op (the paper finds 12).
func (r *MobjectResult) NestedWriteCalls() int {
	n := 0
	for _, s := range r.WriteSpans {
		if s.Kind == "SERVER" && s.RPCName != mobject.RPCWriteOp {
			n++
		}
	}
	return n
}

// RunMobjectIOR reproduces the ior+Mobject study.
func RunMobjectIOR(cfg MobjectConfig) (*MobjectResult, error) {
	cluster := NewCluster(DefaultFabric())
	defer cluster.Shutdown()

	// One provider node hosting the three colocated providers.
	srv, err := cluster.Start(ProcessOptions{
		Mode: margo.ModeServer, Node: "node0", Name: "mobject",
		HandlerStreams: 16, Stage: core.StageFull,
	})
	if err != nil {
		return nil, err
	}
	if _, err := mobject.RegisterProviderNode(srv, "map"); err != nil {
		return nil, err
	}

	// ior clients colocated on the same physical node (paper §V-A2).
	clients := make([]*margo.Instance, cfg.Clients)
	for i := range clients {
		inst, err := cluster.Start(ProcessOptions{
			Mode: margo.ModeClient, Node: "node0",
			Name: fmt.Sprintf("ior%d", i), Stage: core.StageFull,
		})
		if err != nil {
			return nil, err
		}
		clients[i] = inst
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, cfg.Clients)
	for i, inst := range clients {
		wg.Add(1)
		go func(i int, inst *margo.Instance) {
			defer wg.Done()
			_, errs[i] = ior.Run(inst, ior.Config{
				Target:       srv.Addr(),
				Rank:         i,
				Segments:     cfg.Segments,
				TransferSize: cfg.TransferSize,
				ReadBack:     true,
			})
		}(i, inst)
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ior client %d: %w", i, err)
		}
	}
	cluster.Settle()

	profiles, traceDumps := cluster.Collect()
	merged := analysis.Merge(profiles)
	traces := analysis.MergeTraces(traceDumps)
	res := &MobjectResult{
		Config:       cfg,
		WallTime:     wall,
		Dominant:     merged.DominantCallpaths(5),
		Traces:       traces,
		Profile:      merged,
		ProfileDumps: profiles,
		TraceDumps:   traceDumps,
	}

	// Pick one complete mobject_write_op request for the Figure 5 trace.
	for _, ev := range traces.Events {
		if ev.Kind == core.EvOriginEnd && ev.RPCName == mobject.RPCWriteOp {
			res.WriteTraceRequestID = ev.RequestID
			break
		}
	}
	if res.WriteTraceRequestID != 0 {
		res.WriteSpans = traces.Spans(res.WriteTraceRequestID)
	}
	return res, nil
}
