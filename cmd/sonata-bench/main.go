// Command sonata-bench runs the paper's Sonata study (§V-B, Figure 7):
// one origin stores a fixed-length JSON record array on one target (on
// separate nodes) in batches through sonata_store_multi_json, and the
// tool prints how the cumulative RPC execution time on the target maps
// to individual steps — input deserialization, internal RDMA transfer,
// and execution proper. Every run ends by auditing the store (the
// collection's size, and a sample of documents fetched back byte-equal);
// a failed audit is a non-zero exit.
//
// Usage:
//
//	sonata-bench [-records 50000] [-batch 5000] [-size 256]
//	sonata-bench -sweep          # batch-size sweep (ablation)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"symbiosys/internal/experiments"
)

func main() {
	records := flag.Int("records", 50_000, "JSON records to store (paper: 50,000)")
	batch := flag.Int("batch", 5_000, "records per sonata_store_multi_json call (paper: 5,000)")
	size := flag.Int("size", 256, "approximate bytes per JSON record")
	sweep := flag.Bool("sweep", false, "sweep batch sizes instead of a single run")
	flag.Parse()

	if *sweep {
		fmt.Println("Sonata batch-size sweep (records fixed):")
		for _, b := range []int{100, 500, 1000, 5000, 10000} {
			res := run(*records/5, b, *size)
			fmt.Printf("  batch %6d: %3d RPCs  wall %8v  deser %5.1f%%  rdma %5.1f%%\n",
				b, res.RPCCalls, res.WallTime.Round(time.Millisecond),
				100*res.DeserFraction(), 100*res.RDMAFraction())
		}
		return
	}

	res := run(*records, *batch, *size)
	fmt.Printf("Sonata: %d records, batch %d, ~%d B/record, %d RPC calls, wall %v\n",
		*records, *batch, *size, res.RPCCalls, res.WallTime.Round(time.Millisecond))
	fmt.Println("\nCumulative target execution breakdown (Figure 7):")
	total := res.Handler + res.RDMA + res.TargetExec
	row := func(name string, v uint64) {
		fmt.Printf("  %-28s %12v  %5.1f%%\n",
			name, time.Duration(v).Round(time.Microsecond), 100*float64(v)/float64(total))
	}
	row("target handler time", res.Handler)
	row("internal RDMA transfer", res.RDMA)
	row("input deserialization", res.InputDeser)
	row("execution (exclusive)", res.ExecExclusive)
	row("output serialization", res.OutputSer)
	fmt.Printf("\ninput deserialization share: %.1f%% (paper: 27%%); internal RDMA: %.1f%% (paper: low)\n",
		100*res.DeserFraction(), 100*res.RDMAFraction())
}

func run(records, batch, size int) *experiments.SonataResult {
	res, err := experiments.RunSonata(experiments.SonataConfig{
		Records: records, BatchSize: batch, RecordSize: size,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sonata-bench:", err)
		os.Exit(1)
	}
	return res
}
