// Livemon example: the telemetry plane end to end. One server and two
// clients run a bursty RPC workload; an Exposer over the three instances
// serves /metrics and /snapshot on a loopback port, reading them when a
// request arrives. The example takes the snapshot its endpoint serves
// three times while the workload runs, printing the between-scrape
// deltas an operator (or Prometheus) would see — events read, RPCs
// serviced, pool pressure, and the dominant callpath's latency
// percentiles.
//
// Run with:
//
//	go run ./examples/livemon
//
// While it runs, the printed address also serves a browser/cURL-able
// live view: curl http://<addr>/metrics
package main

import (
	"fmt"
	"log"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
	"symbiosys/internal/telemetry"
)

func main() {
	fabric := na.NewFabric(na.DefaultConfig())

	server, err := margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "n1", Name: "svc", Fabric: fabric,
		HandlerStreams: 4, Stage: core.StageFull,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer server.Shutdown()
	server.Register("work_rpc", func(ctx *margo.Context) {
		ctx.Compute(500 * time.Microsecond)
		ctx.Respond(mercury.Void{})
	})

	var clients []*margo.Instance
	for i := 0; i < 2; i++ {
		cli, err := margo.New(margo.Options{
			Mode: margo.ModeClient, Node: "n0", Name: fmt.Sprintf("app%d", i),
			Fabric: fabric, Stage: core.StageFull,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer cli.Shutdown()
		cli.RegisterClient("work_rpc")
		clients = append(clients, cli)
	}

	// Serve every instance under one scrape endpoint.
	exposer := telemetry.NewExposer()
	exposer.Register(server)
	for _, cli := range clients {
		exposer.Register(cli)
	}
	addr, err := exposer.Serve("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer exposer.Close()
	fmt.Printf("serving live telemetry on http://%s/metrics (and /snapshot)\n\n", addr)

	// Background workload: each client issues bursts for ~1.5s.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ults := make([]*abt.ULT, 0, 16)
			for _, cli := range clients {
				for j := 0; j < 8; j++ {
					cli := cli
					ults = append(ults, cli.Run("issuer", func(self *abt.ULT) {
						cli.Forward(self, server.Addr(), "work_rpc", &mercury.Void{}, nil)
					}))
				}
			}
			for _, u := range ults {
				u.Join(nil)
			}
		}
	}()

	// Three consecutive scrapes, printing the server's deltas between
	// them. Registered first, the server is the snapshot's first entry.
	var prev telemetry.Sample
	havePrev := false
	for scrapeN := 1; scrapeN <= 3; scrapeN++ {
		time.Sleep(500 * time.Millisecond)
		srv := exposer.BuildSnapshot().Instances[0]
		last := srv.Last
		fmt.Printf("scrape %d (t=%s)\n", scrapeN, time.Unix(0, last.UnixNanos).Format("15:04:05.000"))
		if havePrev {
			dt := float64(last.UnixNanos-prev.UnixNanos) / 1e9
			fmt.Printf("  Δevents_read   %8d (%.0f/s)\n",
				last.EventsRead-prev.EventsRead,
				float64(last.EventsRead-prev.EventsRead)/dt)
			fmt.Printf("  Δtarget_calls  %8d (%.0f rpc/s)\n",
				last.TargetCalls-prev.TargetCalls,
				float64(last.TargetCalls-prev.TargetCalls)/dt)
			fmt.Printf("  Δtrace_events  %8d buffered (dropped +%d)\n",
				last.TraceLen-prev.TraceLen, last.TraceDropped-prev.TraceDropped)
		} else {
			fmt.Printf("  events_read %d, target_calls %d (deltas from next scrape)\n",
				last.EventsRead, last.TargetCalls)
		}
		for _, p := range last.Pools {
			if p.Name == "handlers" {
				fmt.Printf("  handler pool: runnable %d, blocked %d, executed %d\n",
					p.Runnable, p.Blocked, p.Executed)
			}
		}
		if len(srv.Callpaths) > 0 {
			cp := srv.Callpaths[0]
			fmt.Printf("  dominant callpath %s (%s): n=%d p50=%v p95=%v p99=%v\n",
				cp.Path, cp.Side, cp.Stats.Count,
				cp.Stats.Percentile(50).Round(time.Microsecond),
				cp.Stats.Percentile(95).Round(time.Microsecond),
				cp.Stats.Percentile(99).Round(time.Microsecond))
		}
		fmt.Println()
		prev, havePrev = last, true
	}

	close(stop)
	<-done
	fmt.Println("workload stopped; endpoint closing")
}
