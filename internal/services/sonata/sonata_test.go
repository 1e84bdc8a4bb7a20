package sonata

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/na"
)

type env struct {
	srv, cli *margo.Instance
	client   *Client
}

func newEnv(t *testing.T) *env {
	t.Helper()
	f := na.NewFabric(na.DefaultConfig())
	srv, err := margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "n1", Name: "sonata", Fabric: f, Stage: core.StageFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := margo.New(margo.Options{
		Mode: margo.ModeClient, Node: "n0", Name: "cli", Fabric: f, Stage: core.StageFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Shutdown(); srv.Shutdown() })
	if _, err := RegisterProvider(srv, Config{}); err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cli)
	if err != nil {
		t.Fatal(err)
	}
	return &env{srv: srv, cli: cli, client: client}
}

func (e *env) run(t *testing.T, fn func(self *abt.ULT) error) error {
	t.Helper()
	var err error
	u := e.cli.Run("t", func(self *abt.ULT) { err = fn(self) })
	if jerr := u.Join(nil); jerr != nil {
		t.Fatal(jerr)
	}
	return err
}

func TestStoreFetchOverRPC(t *testing.T) {
	e := newEnv(t)
	err := e.run(t, func(self *abt.ULT) error {
		if err := e.client.CreateCollection(self, e.srv.Addr(), "events"); err != nil {
			return err
		}
		docs := [][]byte{
			[]byte(`{"id": 0, "energy": 10.0}`),
			[]byte(`{"id": 1, "energy": 55.5}`),
			[]byte(`{"id": 2, "energy": 90.0}`),
		}
		first, err := e.client.StoreMultiJSON(self, e.srv.Addr(), "events", docs)
		if err != nil {
			return err
		}
		if first != 0 {
			t.Errorf("first id = %d", first)
		}
		n, err := e.client.CollectionSize(self, e.srv.Addr(), "events")
		if err != nil || n != 3 {
			t.Errorf("size = %d %v", n, err)
		}
		d, found, err := e.client.Fetch(self, e.srv.Addr(), "events", 1)
		if err != nil || !found || string(d) != string(docs[1]) {
			t.Errorf("fetch = %q %v %v", d, found, err)
		}
		if _, found, _ := e.client.Fetch(self, e.srv.Addr(), "events", 99); found {
			t.Error("out-of-range fetch found")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStoreMultiErrors(t *testing.T) {
	e := newEnv(t)
	err := e.run(t, func(self *abt.ULT) error {
		if _, err := e.client.StoreMultiJSON(self, e.srv.Addr(), "ghost", [][]byte{[]byte(`{}`)}); err == nil {
			t.Error("store to unknown collection accepted")
		}
		if err := e.client.CreateCollection(self, e.srv.Addr(), "c"); err != nil {
			return err
		}
		if err := e.client.CreateCollection(self, e.srv.Addr(), "c"); err == nil {
			t.Error("duplicate collection accepted")
		}
		if _, err := e.client.StoreMultiJSON(self, e.srv.Addr(), "c", [][]byte{[]byte(`{bad json`)}); err == nil {
			t.Error("malformed JSON accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargeBatchTriggersInternalRDMA(t *testing.T) {
	// A batch far beyond the 4 KiB eager limit must move the metadata
	// remainder through the internal RDMA path and charge measurable
	// deserialization time at the target — the setting of Figure 7.
	e := newEnv(t)
	const numDocs, docSize = 200, 256
	err := e.run(t, func(self *abt.ULT) error {
		if err := e.client.CreateCollection(self, e.srv.Addr(), "big"); err != nil {
			return err
		}
		docs := make([][]byte, numDocs)
		for i := range docs {
			docs[i] = GenerateRecord(i, docSize)
		}
		if _, err := e.client.StoreMultiJSON(self, e.srv.Addr(), "big", docs); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e.cli.WaitIdle(2 * time.Second)
	time.Sleep(20 * time.Millisecond)

	bc := core.Breadcrumb(0).Push(RPCStoreMultiJSON)
	stats := e.srv.Profiler().TargetStats()
	s, ok := stats[core.StatKey{BC: bc, Peer: e.cli.Addr()}]
	if !ok {
		t.Fatalf("no target stats for store_multi: %+v", stats)
	}
	if s.Components[core.CompRDMA] == 0 {
		t.Fatal("internal RDMA transfer time is zero for oversized metadata")
	}
	if s.Components[core.CompInputDeser] == 0 {
		t.Fatal("input deserialization time is zero")
	}
}

func TestGenerateRecordShape(t *testing.T) {
	for _, size := range []int{64, 256, 2048} {
		b := GenerateRecord(7, size)
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if m["id"].(float64) != 7 {
			t.Fatal("id lost")
		}
		if size > 200 && (len(b) < size/2 || len(b) > size*2) {
			t.Fatalf("size %d produced %d bytes", size, len(b))
		}
	}
	// Deterministic for the same inputs.
	if string(GenerateRecord(3, 300)) != string(GenerateRecord(3, 300)) {
		t.Fatal("GenerateRecord not deterministic")
	}
}

// TestStoredDocsSurviveFrameReuse: sonata is the service that keeps
// what its inputs carried. Small batches arrive as views of their
// request frames, which are recycled (and, under the race detector,
// overwritten) as soon as each handler returns; a thousand more
// requests then pass through the same pool. Every document must fetch
// back byte for byte, and each fetched view must outlive the fetches
// that follow it.
func TestStoredDocsSurviveFrameReuse(t *testing.T) {
	e := newEnv(t)
	const batches, perBatch = 200, 3
	want := make([][]byte, 0, batches*perBatch)
	err := e.run(t, func(self *abt.ULT) error {
		if err := e.client.CreateCollection(self, e.srv.Addr(), "reuse"); err != nil {
			return err
		}
		for b := 0; b < batches; b++ {
			docs := make([][]byte, perBatch)
			for k := range docs {
				docs[k] = GenerateRecord(b*perBatch+k, 130+7*(b%9))
			}
			if _, err := e.client.StoreMultiJSON(self, e.srv.Addr(), "reuse", docs); err != nil {
				return err
			}
			want = append(want, docs...)
			if _, err := e.client.CollectionSize(self, e.srv.Addr(), "reuse"); err != nil {
				return err
			}
		}
		got := make([][]byte, len(want))
		for id := range want {
			d, found, err := e.client.Fetch(self, e.srv.Addr(), "reuse", uint64(id))
			if err != nil || !found {
				return fmt.Errorf("fetch %d: found %v, %v", id, found, err)
			}
			got[id] = d
		}
		for id := range want {
			if string(got[id]) != string(want[id]) {
				return fmt.Errorf("document %d read back as %q, stored %q", id, got[id], want[id])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
