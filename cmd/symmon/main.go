// Command symmon is the live terminal monitor for the SYMBIOSYS
// telemetry plane: it polls a running cluster's /snapshot endpoint and
// renders a refreshing per-instance table of queue depths, pool
// pressure, event rates, and per-callpath latency percentiles — the
// watch-it-live complement to the post-mortem symprof/symtrace tools.
//
// Usage:
//
//	symmon -addr localhost:9100              # refresh every second
//	symmon -addr localhost:9100 -interval 250ms
//	symmon -addr localhost:9100 -top 5       # callpaths per instance
//	symmon -addr localhost:9100 -once        # one snapshot, no refresh
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
	first := true
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
		out := render(snap, *top)
		if !first && !*once {
			// Repaint in place: home the cursor and clear below.
			fmt.Print("\033[H\033[J")
		}
		fmt.Print(out)
		first = false
		if *once {
			return
		}
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

// seriesRate derives the newest per-second rate from a dumped window.
func seriesRate(d telemetry.SeriesDump) float64 {
	n := len(d.Points)
	if n < 2 {
		return 0
	}
	a, b := d.Points[n-2], d.Points[n-1]
	dt := float64(b.UnixNanos-a.UnixNanos) / 1e9
	if dt <= 0 {
		return 0
	}
	return (b.Value - a.Value) / dt
}

func render(snap *telemetry.Snapshot, top int) string {
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
		evRate := 0.0
		if d, ok := inst.Series["events_read"]; ok {
			evRate = seriesRate(d)
		}
		fmt.Fprintf(&b, "%-20s %8d %8d %10.0f %9d %9d %8d %8d\n",
			inst.Addr, inst.Last.CQDepth, inst.Last.RPCsInFlight, evRate,
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
