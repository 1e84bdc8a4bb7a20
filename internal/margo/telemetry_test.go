package margo

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/mercury"
	"symbiosys/internal/telemetry"
)

// get fetches path from the exposer at addr, failing on a transport
// error or a status other than 200.
func get(t *testing.T, addr, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Errorf("GET %s: %v", path, err)
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s = %d, %v", path, resp.StatusCode, err)
	}
	return body
}

// TestScrapeDuringForwardsDrainAndShutdown: eight goroutines scrape
// /metrics and /snapshot, each read going into the live instances, while
// forwards flow, while the client drains, and after it has shut down.
// Under -race this is where a read of instance state that is not safe
// beside the forward, drain or teardown paths shows up.
func TestScrapeDuringForwardsDrainAndShutdown(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})
	srv.Register("scraped_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("scraped_rpc")

	ex := telemetry.NewExposer()
	ex.Register(srv)
	ex.Register(cli)
	addr, err := ex.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	var stop atomic.Bool
	var forwards atomic.Uint64
	ults := make([]*abt.ULT, 4)
	for i := range ults {
		ults[i] = cli.Run("fwd", func(self *abt.ULT) {
			for !stop.Load() {
				if err := cli.Forward(self, srv.Addr(), "scraped_rpc", &mercury.Void{}, nil); err != nil {
					t.Errorf("forward: %v", err)
					return
				}
				forwards.Add(1)
			}
		})
	}

	done := make(chan struct{})
	var scrapes atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if body := get(t, addr, "/metrics"); !strings.Contains(string(body), "symbiosys_events_read{") {
					t.Errorf("/metrics carries no events_read row:\n%s", body)
					return
				}
				var snap telemetry.Snapshot
				if err := json.Unmarshal(get(t, addr, "/snapshot"), &snap); err != nil || len(snap.Instances) != 2 {
					t.Errorf("/snapshot = %d instances, %v", len(snap.Instances), err)
					return
				}
				scrapes.Add(1)
			}
		}()
	}
	waitFor(t, func() bool { return forwards.Load() >= 20 && scrapes.Load() >= 8 })

	// Drain the client part-way: its hook keeps the forwards flowing
	// until a scrape has seen the drain, then stops and joins them so
	// nothing is issued past the drain's in-flight wait.
	seen := make(chan struct{})
	cli.OnDrain(func(context.Context) error {
		<-seen
		stop.Store(true)
		for _, u := range ults {
			u.Join(nil)
		}
		return nil
	})
	drained := make(chan error, 1)
	go func() { drained <- cli.Drain(context.Background()) }()
	waitFor(t, cli.draining.Load)
	if want := `symbiosys_overload_draining{instance="` + cli.Addr() + `"} 1`; !strings.Contains(string(get(t, addr, "/metrics")), want) {
		t.Errorf("scrape after Drain began lacks %q", want)
	}
	close(seen)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := cli.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The client is down; the server is still read on every scrape.
	body := string(get(t, addr, "/metrics"))
	for _, want := range []string{
		`symbiosys_events_read{instance="` + srv.Addr() + `"}`,
		`symbiosys_pool_executed{instance="` + srv.Addr() + `",pool="handlers"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape after the client's Shutdown lacks %q", want)
		}
	}
	close(done)
	wg.Wait()
}
