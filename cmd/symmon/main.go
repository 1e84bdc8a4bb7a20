// Command symmon is the live terminal monitor for the SYMBIOSYS
// telemetry plane: it polls a running cluster's /snapshot endpoint and
// renders a refreshing per-instance table of queue depths, pool
// pressure, event rates, and per-callpath latency percentiles — the
// watch-it-live complement to the post-mortem sym tool.
// Each fetch reads the instances at that moment; event rates (EV/S) are
// the difference of two fetches symmon made, over the time between
// their reads.
//
// Usage:
//
//	symmon -addr localhost:9100              # refresh every second
//	symmon -addr localhost:9100 -interval 250ms
//	symmon -addr localhost:9100 -top 5       # callpaths per instance
//	symmon -addr localhost:9100 -once        # two fetches an interval apart, one table
//
// Point it at anything serving the telemetry exposition: a
// hepnos-bench run started with -metrics, or an experiments.Cluster
// with ServeTelemetry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"symbiosys/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "localhost:9100", "telemetry endpoint host:port")
	interval := flag.Duration("interval", time.Second, "refresh interval")
	top := flag.Int("top", 3, "callpaths shown per instance (0 to hide)")
	once := flag.Bool("once", false, "print one snapshot and exit")
	flag.Parse()

	// Exit the refresh loop cleanly on ^C: end the repaint with a fresh
	// line so the shell prompt does not land mid-table.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Println()
		os.Exit(0)
	}()

	client := &http.Client{Timeout: 5 * time.Second}
	var prev *telemetry.Snapshot
	for {
		snap, err := fetch(client, *addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "symmon: %v\n", err)
			if *once {
				os.Exit(1)
			}
			time.Sleep(*interval)
			continue
		}
		if *once && prev == nil {
			// One table still needs two reads for its rates.
			prev = snap
			time.Sleep(*interval)
			continue
		}
		out := render(prev, snap, *top)
		if prev != nil && !*once {
			// Repaint in place: home the cursor and clear below.
			fmt.Print("\033[H\033[J")
		}
		fmt.Print(out)
		if *once {
			return
		}
		prev = snap
		time.Sleep(*interval)
	}
}

func fetch(c *http.Client, addr string) (*telemetry.Snapshot, error) {
	resp, err := c.Get("http://" + addr + "/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /snapshot: %s", resp.Status)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	return &snap, nil
}

// eventRate is the per-second rate of events_read between an
// instance's read in the previous fetch (nil without one) and its read
// now; 0 when there is no earlier read or no time passed between them.
func eventRate(prev *telemetry.Snapshot, inst telemetry.InstanceSnapshot) float64 {
	if prev == nil {
		return 0
	}
	for _, p := range prev.Instances {
		if p.Addr != inst.Addr {
			continue
		}
		dt := float64(inst.Last.UnixNanos-p.Last.UnixNanos) / 1e9
		if dt <= 0 {
			return 0
		}
		return (float64(inst.Last.EventsRead) - float64(p.Last.EventsRead)) / dt
	}
	return 0
}

// render draws one table from snap; prev, the fetch before it (nil for
// none), supplies the rates.
func render(prev, snap *telemetry.Snapshot, top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "symmon  %s  (%d instances)\n\n",
		time.Unix(0, snap.UnixNanos).Format("15:04:05"), len(snap.Instances))
	fmt.Fprintf(&b, "%-20s %8s %8s %10s %9s %9s %8s %8s\n",
		"INSTANCE", "CQ", "INFLT", "EV/S", "RUN", "BLK", "DROPS", "SINKERR")

	insts := append([]telemetry.InstanceSnapshot(nil), snap.Instances...)
	sort.Slice(insts, func(i, j int) bool { return insts[i].Addr < insts[j].Addr })
	for _, inst := range insts {
		var run, blk int64
		for _, p := range inst.Last.Pools {
			run += p.Runnable
			blk += p.Blocked
		}
		fmt.Fprintf(&b, "%-20s %8d %8d %10.0f %9d %9d %8d %8d\n",
			inst.Addr, inst.Last.CQDepth, inst.Last.RPCsInFlight, eventRate(prev, inst),
			run, blk, inst.Last.TraceDropped, inst.Last.SinkErrors)
	}

	if top > 0 {
		fmt.Fprintf(&b, "\n%-20s %-6s %-24s %10s %10s %10s %10s\n",
			"INSTANCE", "SIDE", "CALLPATH", "CALLS", "P50", "P95", "P99")
		for _, inst := range insts {
			n := 0
			for _, cp := range inst.Callpaths {
				if n >= top {
					break
				}
				if cp.Stats.Count == 0 {
					continue
				}
				n++
				fmt.Fprintf(&b, "%-20s %-6s %-24s %10d %10v %10v %10v\n",
					inst.Addr, cp.Side, clip(cp.Path+"@"+cp.Peer, 24), cp.Stats.Count,
					cp.Stats.Percentile(50).Round(time.Microsecond),
					cp.Stats.Percentile(95).Round(time.Microsecond),
					cp.Stats.Percentile(99).Round(time.Microsecond))
			}
		}
	}
	return b.String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
