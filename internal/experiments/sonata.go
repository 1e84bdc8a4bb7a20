package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/services/sonata"
)

// SonataConfig reproduces the paper's §V-B benchmark: one origin and one
// target on separate compute nodes; a fixed-length JSON record array is
// stored through repeated sonata_store_multi_json calls in batches.
type SonataConfig struct {
	Records    int // paper: 50,000
	BatchSize  int // paper: 5,000
	RecordSize int // bytes per JSON record
	EagerLimit int // Mercury eager buffer; 0 is Mercury's default
}

// SonataResult carries the Figure 7 breakdown: how the cumulative RPC
// execution time on the target maps to individual steps.
type SonataResult struct {
	Config   SonataConfig
	WallTime time.Duration
	RPCCalls uint64

	// Cumulative target-side nanoseconds per step.
	TargetExec    uint64 // t5→t8 total
	InputDeser    uint64
	OutputSer     uint64
	RDMA          uint64
	Handler       uint64
	ExecExclusive uint64 // target exec minus (de)serialization

	Profile *analysis.MergedProfile
}

// DeserFraction is the paper's headline number: input deserialization
// as a share of overall execution time on the target (≈27% in Fig 7).
func (r *SonataResult) DeserFraction() float64 {
	total := r.Handler + r.RDMA + r.TargetExec
	if total == 0 {
		return 0
	}
	return float64(r.InputDeser) / float64(total)
}

// RDMAFraction is the internal RDMA share of the same total.
func (r *SonataResult) RDMAFraction() float64 {
	total := r.Handler + r.RDMA + r.TargetExec
	if total == 0 {
		return 0
	}
	return float64(r.RDMA) / float64(total)
}

// RunSonata reproduces the batch-store benchmark, then audits the store:
// the collection holds exactly the records stored, and a sample of them
// reads back byte for byte. A failed audit is an error.
func RunSonata(cfg SonataConfig) (*SonataResult, error) {
	return runSonata(cfg, func(srv *margo.Instance) error {
		_, err := sonata.RegisterProvider(srv, sonata.Config{StoreCostPerDoc: 8 * time.Microsecond})
		return err
	})
}

// runSonata is RunSonata over whatever provider register installs on
// the target (the audit's test plants a lossy one).
func runSonata(cfg SonataConfig, register func(srv *margo.Instance) error) (*SonataResult, error) {
	cluster := NewCluster(DefaultFabric())
	defer cluster.Shutdown()

	srv, err := cluster.Start(ProcessOptions{
		Mode: margo.ModeServer, Node: "node1", Name: "sonata",
		HandlerStreams: 4, Stage: core.StageFull, EagerLimit: cfg.EagerLimit,
	})
	if err != nil {
		return nil, err
	}
	if err := register(srv); err != nil {
		return nil, err
	}
	cli, err := cluster.Start(ProcessOptions{
		Mode: margo.ModeClient, Node: "node0", Name: "bench",
		Stage: core.StageFull, EagerLimit: cfg.EagerLimit,
	})
	if err != nil {
		return nil, err
	}
	client, err := sonata.NewClient(cli)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	var wall time.Duration
	var runErr error
	u := cli.Run("sonata-origin", func(self *abt.ULT) {
		if runErr = client.CreateCollection(self, srv.Addr(), "records"); runErr != nil {
			return
		}
		batch := make([][]byte, 0, cfg.BatchSize)
		for i := 0; i < cfg.Records; i++ {
			batch = append(batch, sonata.GenerateRecord(i, cfg.RecordSize))
			if len(batch) == cfg.BatchSize || i == cfg.Records-1 {
				if _, runErr = client.StoreMultiJSON(self, srv.Addr(), "records", batch); runErr != nil {
					return
				}
				batch = batch[:0]
			}
		}
		wall = time.Since(start)
		runErr = auditSonata(self, client, srv.Addr(), cfg)
	})
	if err := u.Join(nil); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	cluster.Settle()

	merged, _ := cluster.Analyze()
	res := &SonataResult{Config: cfg, WallTime: wall, Profile: merged}
	bc := core.Breadcrumb(0).Push(sonata.RPCStoreMultiJSON)
	for key, s := range merged.Target {
		if key.BC != bc {
			continue
		}
		res.RPCCalls += s.Count
		res.TargetExec += s.Components[core.CompTargetExec]
		res.InputDeser += s.Components[core.CompInputDeser]
		res.OutputSer += s.Components[core.CompOutputSer]
		res.RDMA += s.Components[core.CompRDMA]
		res.Handler += s.Components[core.CompHandler]
	}
	if sub := res.InputDeser + res.OutputSer; sub < res.TargetExec {
		res.ExecExclusive = res.TargetExec - sub
	}
	return res, nil
}

// sonataAuditSample is how many stored documents the audit reads back.
const sonataAuditSample = 64

// auditSonata checks the store against what the run wrote: the
// collection's size, and a seeded sample of documents fetched back
// byte-equal to what GenerateRecord produced for their ids.
func auditSonata(self *abt.ULT, client *sonata.Client, target string, cfg SonataConfig) error {
	n, err := client.CollectionSize(self, target, "records")
	if err != nil {
		return fmt.Errorf("experiments: sonata audit: %w", err)
	}
	if n != uint64(cfg.Records) {
		return fmt.Errorf("experiments: sonata audit: collection holds %d documents, stored %d", n, cfg.Records)
	}
	ids := rand.New(rand.NewSource(1)).Perm(cfg.Records)
	for _, id := range ids[:min(sonataAuditSample, len(ids))] {
		doc, found, err := client.Fetch(self, target, "records", uint64(id))
		if err != nil {
			return fmt.Errorf("experiments: sonata audit: fetch %d: %w", id, err)
		}
		if !found || !bytes.Equal(doc, sonata.GenerateRecord(id, cfg.RecordSize)) {
			return fmt.Errorf("experiments: sonata audit: document %d read back wrong (found %v, %d bytes)", id, found, len(doc))
		}
	}
	return nil
}
