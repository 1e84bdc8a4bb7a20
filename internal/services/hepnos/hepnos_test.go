package hepnos

import (
	"fmt"
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
	"symbiosys/internal/services/sdskv"
)

type env struct {
	cli     *margo.Instance
	servers []*Server
	infos   []ServerInfo
}

func newEnv(t *testing.T, numServers, dbsPerServer int) *env {
	t.Helper()
	f := na.NewFabric(na.DefaultConfig())
	e := &env{}
	for i := 0; i < numServers; i++ {
		inst, err := margo.New(margo.Options{
			Mode: margo.ModeServer, Node: fmt.Sprintf("sn%d", i),
			Name: "hepnos", Fabric: f, HandlerStreams: 4, Stage: core.StageFull,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(inst, dbsPerServer, "map", sdskv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		e.servers = append(e.servers, srv)
		e.infos = append(e.infos, ServerInfo{Addr: srv.Addr(), DBIDs: srv.DBIDs})
	}
	cli, err := margo.New(margo.Options{
		Mode: margo.ModeClient, Node: "cn0", Name: "loader", Fabric: f, Stage: core.StageFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.cli = cli
	t.Cleanup(func() {
		cli.Shutdown()
		for _, s := range e.servers {
			s.Inst.Shutdown()
		}
	})
	return e
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

func TestEventKeyFormat(t *testing.T) {
	k := EventKey{DataSet: "nova", Run: 1, SubRun: 2, Event: 3}
	want := "nova/000000000001/000000000002/000000000003"
	if k.String() != want {
		t.Fatalf("key = %q", k.String())
	}
}

// TestEventKeyMatchesPrintfForm holds AppendTo to the key format stored
// data already uses, including numbers wider than the padding.
func TestEventKeyMatchesPrintfForm(t *testing.T) {
	nums := []uint64{0, 9, 10, 999999999999, 1000000000000, 1<<64 - 1}
	for _, run := range nums {
		for _, ev := range nums {
			k := EventKey{DataSet: "NOvA/numi", Run: run, SubRun: 7, Event: ev}
			want := fmt.Sprintf("%s/%012d/%012d/%012d", k.DataSet, k.Run, k.SubRun, k.Event)
			if got := k.Bytes(); string(got) != want || k.String() != want {
				t.Fatalf("key = %q / %q, want %q", got, k.String(), want)
			}
			if got := k.AppendTo([]byte("x")); string(got) != "x"+want {
				t.Fatalf("AppendTo(x) = %q", got)
			}
		}
	}
	k := EventKey{DataSet: "nova", Run: 1, SubRun: 2, Event: 3}
	if a := testing.AllocsPerRun(100, func() { _ = k.Bytes() }); a != 1 {
		t.Errorf("Bytes allocates %.0f objects, want 1 (the exact-size key)", a)
	}
	if got := k.Bytes(); cap(got) != len(got) {
		t.Errorf("Bytes: cap %d for %d bytes", cap(got), len(got))
	}
}

func TestStoreAndLoadEvents(t *testing.T) {
	e := newEnv(t, 2, 4)
	const events = 100
	err := e.run(t, func(self *abt.ULT) error {
		c, err := NewClient(e.cli, e.infos, Options{BatchSize: 16})
		if err != nil {
			return err
		}
		if c.totalDBs != 8 {
			t.Errorf("totalDBs = %d", c.totalDBs)
		}
		for i := 0; i < events; i++ {
			k := EventKey{DataSet: "nova", Run: 1, SubRun: uint64(i / 10), Event: uint64(i)}
			if err := c.StoreEvent(self, k, []byte(fmt.Sprintf("event-%d", i))); err != nil {
				return err
			}
		}
		if err := c.Flush(self); err != nil {
			return err
		}
		if c.Stored() != events {
			t.Errorf("Stored = %d", c.Stored())
		}
		// Read a few back.
		for i := 0; i < events; i += 17 {
			k := EventKey{DataSet: "nova", Run: 1, SubRun: uint64(i / 10), Event: uint64(i)}
			v, found, err := c.LoadEvent(self, k)
			if err != nil {
				return err
			}
			if !found || string(v) != fmt.Sprintf("event-%d", i) {
				t.Errorf("event %d = %q found=%v", i, v, found)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range e.servers {
		total += s.StoredEvents()
	}
	if total != events {
		t.Fatalf("servers hold %d events, want %d", total, events)
	}
}

func TestEventsSpreadAcrossDatabases(t *testing.T) {
	e := newEnv(t, 2, 4)
	err := e.run(t, func(self *abt.ULT) error {
		c, err := NewClient(e.cli, e.infos, Options{BatchSize: 8})
		if err != nil {
			return err
		}
		for i := 0; i < 400; i++ {
			k := EventKey{DataSet: "ds", Run: uint64(i), SubRun: 0, Event: uint64(i)}
			if err := c.StoreEvent(self, k, []byte("x")); err != nil {
				return err
			}
		}
		return c.Flush(self)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every database should have received a share.
	for si, s := range e.servers {
		for _, id := range s.DBIDs {
			n, err := s.Sdskv.LocalLength(id)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Errorf("server %d db %d received no events", si, id)
			}
		}
	}
}

func TestBatchSizeControlsRPCCount(t *testing.T) {
	// With one database, storing N events at batch size B issues about
	// N/B put_packed RPCs; batch size 1 issues N.
	countRPCs := func(batchSize int) uint64 {
		e := newEnv(t, 1, 1)
		const events = 64
		if err := e.run(t, func(self *abt.ULT) error {
			c, err := NewClient(e.cli, e.infos, Options{BatchSize: batchSize})
			if err != nil {
				return err
			}
			for i := 0; i < events; i++ {
				k := EventKey{DataSet: "b", Event: uint64(i)}
				if err := c.StoreEvent(self, k, []byte("v")); err != nil {
					return err
				}
			}
			return c.Flush(self)
		}); err != nil {
			t.Fatal(err)
		}
		e.cli.WaitIdle(2 * time.Second)
		time.Sleep(10 * time.Millisecond)
		bc := core.Breadcrumb(0).Push(sdskv.RPCPutPacked)
		var count uint64
		for k, s := range e.cli.Profiler().OriginStats() {
			if k.BC == bc {
				count += s.Count
			}
		}
		return count
	}
	if got := countRPCs(64); got != 1 {
		t.Fatalf("batch 64: %d RPCs, want 1", got)
	}
	if got := countRPCs(1); got != 64 {
		t.Fatalf("batch 1: %d RPCs, want 64", got)
	}
}

func TestClientRequiresDatabases(t *testing.T) {
	e := newEnv(t, 1, 1)
	if _, err := NewClient(e.cli, nil, Options{BatchSize: 4}); err == nil {
		t.Fatal("client with no servers accepted")
	}
	_ = mercury.Void{}
}

// TestStoreEventCopiesItsPayload: StoreEvent copies the event, so a
// caller that rewrites one buffer for every event, as a file reader
// does, still stores each event's own bytes.
func TestStoreEventCopiesItsPayload(t *testing.T) {
	e := newEnv(t, 1, 2)
	const events = 32
	key := func(i int) EventKey { return EventKey{DataSet: "reuse", Run: 1, Event: uint64(i)} }
	want := func(i int) []byte { return []byte(fmt.Sprintf("payload of event %04d", i)) }
	err := e.run(t, func(self *abt.ULT) error {
		c, err := NewClient(e.cli, e.infos, Options{BatchSize: 8})
		if err != nil {
			return err
		}
		var buf []byte
		for i := 0; i < events; i++ {
			buf = append(buf[:0], want(i)...)
			if err := c.StoreEvent(self, key(i), buf); err != nil {
				return err
			}
		}
		if err := c.Flush(self); err != nil {
			return err
		}
		for i := 0; i < events; i++ {
			got, found, err := c.LoadEvent(self, key(i))
			if err != nil {
				return err
			}
			if !found || string(got) != string(want(i)) {
				t.Errorf("event %d = %q (found %v), want %q", i, got, found, want(i))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStoreEventAllocs pins the loader's hot path. Between flushes a
// StoreEvent copies the key and the event into its batch's frame, whose
// pooled arena was sized for the whole batch at its first event, and
// allocates nothing. A flush hands the batch to sdskv (through a recycled
// flusher ULT in async mode) and takes it back afterwards, so a
// batch-of-one StoreEvent costs the whole process what its put_packed
// round trip costs — under one object, the store's and the trace's
// amortised chunks — with or without the async engine.
func TestStoreEventAllocs(t *testing.T) {
	if mercury.RaceEnabled {
		t.Skip("pooled records are dropped at random under the race detector")
	}
	e := newEnv(t, 1, 1)
	data := make([]byte, 512)
	cases := []struct {
		name string
		opts Options
		runs int
	}{
		// 1 + 1000 runs after a 1024-event warm-up: none of them flushes.
		{"batch 1024 between flushes", Options{BatchSize: 1024}, 1000},
		{"batch 1 synchronous", Options{BatchSize: 1}, 2000},
		{"batch 1 async engine", Options{BatchSize: 1, MaxInflight: 64}, 2000},
	}
	for _, tc := range cases {
		if err := e.run(t, func(self *abt.ULT) error {
			c, err := NewClient(e.cli, e.infos, tc.opts)
			if err != nil {
				return err
			}
			var n uint64
			var ferr error
			store := func() {
				n++
				// 64 distinct keys, so the store overwrites in place.
				if err := c.StoreEvent(self, EventKey{DataSet: "pin", Run: 1, Event: n % 64}, data); err != nil && ferr == nil {
					ferr = err
				}
			}
			for k := 0; k < 1024; k++ {
				store()
			}
			if a := testing.AllocsPerRun(tc.runs, store); a != 0 {
				t.Errorf("%s: StoreEvent allocates %.2f objects, want 0", tc.name, a)
			}
			if err := c.Flush(self); err != nil {
				return err
			}
			return ferr
		}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}
