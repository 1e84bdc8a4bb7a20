package experiments

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"symbiosys/internal/abt"
	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/services/hepnos"
	"symbiosys/internal/services/mobject"
	"symbiosys/internal/services/sdskv"
	"symbiosys/internal/services/sonata"
	"symbiosys/internal/workload/dataloader"
	"symbiosys/internal/workload/ior"
)

// TestMixedServiceSoak deploys all three case-study services on one
// fabric and drives them concurrently: a Mobject provider node under
// ior, a HEPnOS deployment under the data-loader, and a Sonata store
// under a JSON batch writer. It verifies (a) every workload completes,
// (b) the merged profile attributes callpaths to the right services
// without cross-talk, and (c) the trace set stitches cleanly.
func TestMixedServiceSoak(t *testing.T) {
	var (
		mobSrv, iorCli, loaderCli, sonSrv, sonCli *margo.Instance
		sonClient                                 *sonata.Client
		infos                                     []hepnos.ServerInfo
	)
	s := Scenario{Name: "soak"}
	s.Build = func(c *Cluster) error {
		var err error
		// Mobject provider node + ior client.
		mobSrv, err = c.Start(ProcessOptions{
			Mode: margo.ModeServer, Node: "node0", Name: "mobject",
			HandlerStreams: 8, Stage: core.StageFull,
		})
		if err != nil {
			return err
		}
		if _, err := mobject.RegisterProviderNode(mobSrv, "map"); err != nil {
			return err
		}
		iorCli, err = c.Start(ProcessOptions{
			Mode: margo.ModeClient, Node: "node0", Name: "ior", Stage: core.StageFull,
		})
		if err != nil {
			return err
		}

		// HEPnOS servers + loader client.
		for i := 0; i < 2; i++ {
			inst, err := c.Start(ProcessOptions{
				Mode: margo.ModeServer, Node: fmt.Sprintf("node%d", i+1),
				Name: "hepnos", HandlerStreams: 4, Stage: core.StageFull,
			})
			if err != nil {
				return err
			}
			srv, err := hepnos.NewServer(inst, 4, "map", sdskv.Config{})
			if err != nil {
				return err
			}
			infos = append(infos, hepnos.ServerInfo{Addr: srv.Addr(), DBIDs: srv.DBIDs})
		}
		loaderCli, err = c.Start(ProcessOptions{
			Mode: margo.ModeClient, Node: "node3", Name: "loader", Stage: core.StageFull,
		})
		if err != nil {
			return err
		}

		// Sonata server + client.
		sonSrv, err = c.Start(ProcessOptions{
			Mode: margo.ModeServer, Node: "node4", Name: "sonata",
			HandlerStreams: 2, Stage: core.StageFull,
		})
		if err != nil {
			return err
		}
		if _, err := sonata.RegisterProvider(sonSrv, sonata.Config{}); err != nil {
			return err
		}
		sonCli, err = c.Start(ProcessOptions{
			Mode: margo.ModeClient, Node: "node5", Name: "writer", Stage: core.StageFull,
		})
		if err != nil {
			return err
		}
		sonClient, err = sonata.NewClient(sonCli)
		if err != nil {
			return err
		}

		return nil
	}
	s.Drive = func(*Cluster, *Run) error {
		// Drive all three concurrently.
		var wg sync.WaitGroup
		errs := make([]error, 3)
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, errs[0] = ior.Run(iorCli, ior.Config{
				Target: mobSrv.Addr(), Rank: 0, Segments: 6,
				TransferSize: 8 << 10,
			})
		}()
		go func() {
			defer wg.Done()
			_, errs[1] = dataloader.Run(loaderCli, dataloader.Config{
				Events: 512, EventSize: 256, BatchSize: 16,
				MaxInflight: 8, Issuers: 2, Servers: infos,
			})
		}()
		go func() {
			defer wg.Done()
			u := sonCli.Run("sonata-writer", func(self *abt.ULT) {
				if err := sonClient.CreateCollection(self, sonSrv.Addr(), "soak"); err != nil {
					errs[2] = err
					return
				}
				batch := make([][]byte, 0, 100)
				for i := 0; i < 500; i++ {
					batch = append(batch, sonata.GenerateRecord(i, 128))
					if len(batch) == 100 {
						if _, err := sonClient.StoreMultiJSON(self, sonSrv.Addr(), "soak", batch); err != nil {
							errs[2] = err
							return
						}
						batch = batch[:0]
					}
				}
				// Read the store back while other services run.
				n, err := sonClient.CollectionSize(self, sonSrv.Addr(), "soak")
				if err != nil {
					errs[2] = err
					return
				}
				if n != 500 {
					errs[2] = fmt.Errorf("collection holds %d of 500", n)
				}
			})
			u.Join(nil)
		}()
		wg.Wait()
		return errors.Join(errs...)
	}
	run, err := Execute(s, "", "")
	if err != nil {
		t.Fatal(err)
	}

	merged, traces := run.Profile, run.Traces

	// Every service's signature callpath must be present and correctly
	// attributed — no cross-talk between services sharing the fabric.
	rows := merged.DominantCallpaths(0)
	want := map[string]bool{
		"mobject_write_op":            false,
		"mobject_read_op":             false,
		"sdskv_put_packed_rpc":        false,
		"sonata_store_multi_json_rpc": false,
		"sonata_collection_size_rpc":  false,
	}
	for _, r := range rows {
		if _, tracked := want[r.Name]; tracked {
			want[r.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("callpath %q missing from merged profile", name)
		}
	}

	// The loader's put_packed calls must all target HEPnOS servers.
	bc := core.Breadcrumb(0).Push(sdskv.RPCPutPacked)
	for key := range merged.Origin {
		if key.BC == bc {
			found := false
			for _, info := range infos {
				if key.Peer == info.Addr {
					found = true
				}
			}
			if !found {
				t.Errorf("put_packed attributed to non-HEPnOS peer %s", key.Peer)
			}
		}
	}

	// Traces stitch: every request's spans pair up and the gap view is
	// well-formed.
	reqs, spansSeen := 0, 0
	traces.EachRequest(func(id uint64, _ int, spans []analysis.Span) {
		reqs++
		spansSeen += len(spans)
		if f := analysis.UncoveredFraction(spans); f < 0 || f > 1 {
			t.Fatalf("request %#x uncovered fraction %f", id, f)
		}
	})
	if reqs == 0 {
		t.Fatal("no requests traced")
	}
	if spansSeen == 0 {
		t.Fatal("no spans reconstructed")
	}
}
