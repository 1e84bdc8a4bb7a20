// Tracing example: emit a Zipkin v2 JSON trace for one composed request
// (the paper's Figure 5 workflow). A Mobject provider node services one
// mobject_write_op, SYMBIOSYS records the distributed trace, and the
// adapter stitches the events from the client and provider processes
// into a single Zipkin file you can load into any Zipkin UI.
//
// Run with:
//
//	go run ./examples/tracing
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/na"
	"symbiosys/internal/services/mobject"
)

func main() {
	fabric := na.NewFabric(na.DefaultConfig())

	// Attach a streaming JSONL sink to the provider: every trace event
	// it emits is exported on-line (ingest with `sym trace -dir .`),
	// independent of the bounded in-memory rings.
	jsonlFile, err := os.Create("mobject.trace.jsonl")
	if err != nil {
		log.Fatal(err)
	}
	defer jsonlFile.Close()
	jsonlSink := core.NewJSONLTraceSink(jsonlFile)

	server, err := margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "node0", Name: "mobject",
		Fabric: fabric, HandlerStreams: 8, Stage: core.StageFull,
		TraceSinks: []core.TraceSink{jsonlSink},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer server.Shutdown()
	if _, err := mobject.RegisterProviderNode(server, "map"); err != nil {
		log.Fatal(err)
	}

	client, err := margo.New(margo.Options{
		Mode: margo.ModeClient, Node: "node0", Name: "app",
		Fabric: fabric, Stage: core.StageFull,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Shutdown()
	mc, err := mobject.NewClient(client)
	if err != nil {
		log.Fatal(err)
	}

	u := client.Run("writer", func(self *abt.ULT) {
		data := make([]byte, 8192)
		if err := mc.WriteOp(self, server.Addr(), "trace-me", data); err != nil {
			log.Printf("write_op: %v", err)
		}
	})
	u.Join(nil)
	server.WaitIdle(2 * time.Second)
	time.Sleep(20 * time.Millisecond)

	// Stitch the two processes' trace buffers into one request view.
	ts := analysis.MergeTraces([]*core.TraceDump{
		client.Profiler().DumpTrace(),
		server.Profiler().DumpTrace(),
	})
	ids := ts.RequestIDs()
	if len(ids) == 0 {
		log.Fatal("no requests traced")
	}
	reqID := ids[0]
	spans := ts.Spans(reqID)
	fmt.Printf("request %#x: %d spans across %d processes\n", reqID, len(spans), 2)
	for _, s := range spans {
		indent := ""
		if s.Breadcrumb.Depth() > 1 {
			indent = "    "
		}
		fmt.Printf("  %s[%6s] %-26s dur %v\n",
			indent, s.Kind, s.RPCName, time.Duration(s.DurNanos).Round(time.Microsecond))
	}

	const out = "mobject_write_op_trace.json"
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := ts.WriteZipkin(f, reqID); err != nil {
		log.Fatal(err)
	}

	// The provider's events in their two spellings: the stream its sink
	// wrote on-line, and the binary dump of the same buffer.
	if err := jsonlSink.Flush(); err != nil {
		log.Fatal(err)
	}
	var dump bytes.Buffer
	if err := core.WriteTrace(&dump, server.Profiler().DumpTrace()); err != nil {
		log.Fatal(err)
	}
	n := server.Profiler().TraceLen()
	if st, err := jsonlFile.Stat(); err == nil && n > 0 {
		fmt.Printf("\nprovider trace, %d events: mobject.trace.jsonl %d B (%.1f B/event), binary dump %d B (%.1f B/event)\n",
			n, st.Size(), float64(st.Size())/float64(n), dump.Len(), float64(dump.Len())/float64(n))
	}
	fmt.Printf("\nwrote Zipkin v2 trace to %s — load it into a Zipkin UI to see\n", out)
	fmt.Println("the Figure 5 Gantt chart: 12 discrete SDSKV/BAKE calls under one write_op")
}
