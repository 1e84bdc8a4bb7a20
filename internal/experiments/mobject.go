package experiments

import (
	"fmt"
	"sync"

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
	Config MobjectConfig
	*Run

	// Top callpaths by cumulative latency (Figure 6).
	Dominant []analysis.CallpathRow

	// WriteTraceRequestID identifies one complete mobject_write_op
	// request, and WriteSpans are its reconstructed spans (Figure 5).
	WriteTraceRequestID uint64
	WriteSpans          []analysis.Span
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

// RunMobjectIOR reproduces the ior+Mobject study as the run "mobject".
func RunMobjectIOR(cfg MobjectConfig, metricsAddr, out string) (*MobjectResult, error) {
	var srv *margo.Instance
	clients := make([]*margo.Instance, cfg.Clients)
	s := Scenario{Name: "mobject"}
	s.Build = func(c *Cluster) error {
		// One provider node hosting the three colocated providers.
		var err error
		if srv, err = c.Start(ProcessOptions{
			Mode: margo.ModeServer, Node: "node0", Name: "mobject",
			HandlerStreams: 16, Stage: core.StageFull,
		}); err != nil {
			return err
		}
		if _, err := mobject.RegisterProviderNode(srv, "map"); err != nil {
			return err
		}
		// ior clients colocated on the same physical node (paper §V-A2).
		for i := range clients {
			if clients[i], err = c.Start(ProcessOptions{
				Mode: margo.ModeClient, Node: "node0",
				Name: fmt.Sprintf("ior%d", i), Stage: core.StageFull,
			}); err != nil {
				return err
			}
		}
		return nil
	}
	s.Drive = func(*Cluster, *Run) error {
		var wg sync.WaitGroup
		errs := make([]error, cfg.Clients)
		for i, inst := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = ior.Run(inst, ior.Config{
					Target:       srv.Addr(),
					Rank:         i,
					Segments:     cfg.Segments,
					TransferSize: cfg.TransferSize,
				})
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("ior client %d: %w", i, err)
			}
		}
		return nil
	}
	run, err := Execute(s, metricsAddr, out)
	if err != nil {
		return nil, err
	}
	res := &MobjectResult{Config: cfg, Run: run, Dominant: run.Profile.DominantCallpaths(5)}
	// Pick one complete mobject_write_op request for the Figure 5 trace.
	run.Traces.EachEvent(func(ev *core.Event) {
		if res.WriteTraceRequestID == 0 && ev.Kind == core.EvOriginEnd && ev.RPCName == mobject.RPCWriteOp {
			res.WriteTraceRequestID = ev.RequestID
		}
	})
	if res.WriteTraceRequestID != 0 {
		res.WriteSpans = run.Traces.Spans(res.WriteTraceRequestID)
	}
	return res, nil
}
