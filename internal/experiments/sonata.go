package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"symbiosys/internal/abt"
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
}

// SonataResult carries the Figure 7 breakdown: how the cumulative RPC
// execution time on the target maps to individual steps.
type SonataResult struct {
	Config SonataConfig
	*Run
	RPCCalls uint64

	// Cumulative target-side nanoseconds per step.
	TargetExec    uint64 // t5→t8 total
	InputDeser    uint64
	OutputSer     uint64
	RDMA          uint64
	Handler       uint64
	ExecExclusive uint64 // target exec minus (de)serialization
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

// RunSonata reproduces the batch-store benchmark as the run "sonata";
// its audit is that the collection holds exactly the records stored and
// a sample of them reads back byte for byte.
func RunSonata(cfg SonataConfig, metricsAddr, out string) (*SonataResult, error) {
	run, err := Execute(sonataScenario(cfg, func(srv *margo.Instance) error {
		_, err := sonata.RegisterProvider(srv, sonata.Config{StoreCostPerDoc: 8 * time.Microsecond})
		return err
	}), metricsAddr, out)
	if err != nil {
		return nil, err
	}
	res := &SonataResult{Config: cfg, Run: run}
	bc := core.Breadcrumb(0).Push(sonata.RPCStoreMultiJSON)
	for key, s := range run.Profile.Target {
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

// sonataScenario is the batch store over whatever provider register
// installs on the target (the audit's test plants a lossy one).
func sonataScenario(cfg SonataConfig, register func(srv *margo.Instance) error) Scenario {
	var srv, cli *margo.Instance
	var client *sonata.Client
	return Scenario{
		Name: "sonata",
		Build: func(c *Cluster) error {
			var err error
			if srv, err = c.Start(ProcessOptions{
				Mode: margo.ModeServer, Node: "node1", Name: "sonata",
				HandlerStreams: 4, Stage: core.StageFull,
			}); err != nil {
				return err
			}
			if err := register(srv); err != nil {
				return err
			}
			if cli, err = c.Start(ProcessOptions{
				Mode: margo.ModeClient, Node: "node0", Name: "bench",
				Stage: core.StageFull,
			}); err != nil {
				return err
			}
			client, err = sonata.NewClient(cli)
			return err
		},
		Drive: func(*Cluster, *Run) error {
			return onULT(cli, "sonata-origin", func(self *abt.ULT) error {
				if err := client.CreateCollection(self, srv.Addr(), "records"); err != nil {
					return err
				}
				batch := make([][]byte, 0, cfg.BatchSize)
				for i := 0; i < cfg.Records; i++ {
					batch = append(batch, sonata.GenerateRecord(i, cfg.RecordSize))
					if len(batch) == cfg.BatchSize || i == cfg.Records-1 {
						if _, err := client.StoreMultiJSON(self, srv.Addr(), "records", batch); err != nil {
							return err
						}
						batch = batch[:0]
					}
				}
				return nil
			})
		},
		Audit: func(*Cluster, *Run) error {
			return onULT(cli, "sonata-audit", func(self *abt.ULT) error {
				return auditSonata(self, client, srv.Addr(), cfg)
			})
		},
	}
}

// sonataAuditSample is how many stored documents the audit reads back.
const sonataAuditSample = 64

// auditSonata checks the store against what the run wrote: the
// collection's size, and a seeded sample of documents fetched back
// byte-equal to what GenerateRecord produced for their ids.
func auditSonata(self *abt.ULT, client *sonata.Client, target string, cfg SonataConfig) error {
	n, err := client.CollectionSize(self, target, "records")
	if err != nil {
		return fmt.Errorf("collection size: %w", err)
	}
	if n != uint64(cfg.Records) {
		return fmt.Errorf("collection holds %d documents, stored %d", n, cfg.Records)
	}
	ids := rand.New(rand.NewSource(1)).Perm(cfg.Records)
	for _, id := range ids[:min(sonataAuditSample, len(ids))] {
		doc, found, err := client.Fetch(self, target, "records", uint64(id))
		if err != nil {
			return fmt.Errorf("fetch %d: %w", id, err)
		}
		if !found || !bytes.Equal(doc, sonata.GenerateRecord(id, cfg.RecordSize)) {
			return fmt.Errorf("document %d read back wrong (found %v, %d bytes)", id, found, len(doc))
		}
	}
	return nil
}
