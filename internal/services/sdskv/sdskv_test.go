package sdskv

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/batch"
	"symbiosys/internal/margo"
	"symbiosys/internal/na"
)

type env struct {
	srv, cli *margo.Instance
	prov     *Provider
	client   *Client
}

func newEnv(t *testing.T, cfg Config) *env {
	t.Helper()
	f := na.NewFabric(na.DefaultConfig())
	srv, err := margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "n1", Name: "sdskv", Fabric: f, HandlerStreams: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := margo.New(margo.Options{Mode: margo.ModeClient, Node: "n0", Name: "cli", Fabric: f})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Shutdown(); srv.Shutdown() })
	prov, err := RegisterProvider(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cli)
	if err != nil {
		t.Fatal(err)
	}
	return &env{srv: srv, cli: cli, prov: prov, client: client}
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

// newBatchEnv is newEnv with a client-side coalescer installed.
func newBatchEnv(t *testing.T, cfg Config, pol batch.Policy) *env {
	t.Helper()
	f := na.NewFabric(na.DefaultConfig())
	srv, err := margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "n1", Name: "sdskv", Fabric: f, HandlerStreams: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := margo.New(margo.Options{
		Mode: margo.ModeClient, Node: "n0", Name: "cli", Fabric: f, Batch: &pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Shutdown(); srv.Shutdown() })
	prov, err := RegisterProvider(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cli)
	if err != nil {
		t.Fatal(err)
	}
	return &env{srv: srv, cli: cli, prov: prov, client: client}
}

func TestPutMultiGetMultiBatched(t *testing.T) {
	e := newBatchEnv(t, Config{}, batch.Policy{MaxOps: 16, MaxDelay: 500 * time.Microsecond})
	const n = 48
	err := e.run(t, func(self *abt.ULT) error {
		db, err := e.prov.OpenLocal("multi", "map")
		if err != nil {
			return err
		}
		keys := make([][]byte, n)
		vals := make([][]byte, n)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("mk-%03d", i))
			vals[i] = []byte(fmt.Sprintf("mv-%03d", i))
		}
		for i, err := range e.client.PutMulti(self, e.srv.Addr(), db, keys, vals) {
			if err != nil {
				t.Errorf("PutMulti[%d]: %v", i, err)
			}
		}
		// A miss in the middle must come back found=false, not an error.
		probe := append(append([][]byte{}, keys[:3]...), []byte("absent"))
		probe = append(probe, keys[3:]...)
		got, found, errs := e.client.GetMulti(self, e.srv.Addr(), db, probe)
		for i := range probe {
			if errs[i] != nil {
				t.Errorf("GetMulti[%d]: %v", i, errs[i])
				continue
			}
			if string(probe[i]) == "absent" {
				if found[i] {
					t.Error("absent key reported found")
				}
				continue
			}
			want := "mv-" + string(probe[i][3:])
			if !found[i] || string(got[i]) != want {
				t.Errorf("GetMulti[%d] = %q %v, want %q", i, got[i], found[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bs := e.cli.BatchStats()
	if bs.Flushes == 0 || bs.Ops < 2*n {
		t.Fatalf("coalescer idle: %+v", bs)
	}
	if bs.CoalesceRatio < 2 {
		t.Fatalf("multi-op workload did not coalesce: ratio %.2f", bs.CoalesceRatio)
	}
}

func TestPutMultiFallsBackWithoutPolicy(t *testing.T) {
	e := newEnv(t, Config{}) // no Options.Batch: sequential Forwards
	err := e.run(t, func(self *abt.ULT) error {
		db, err := e.prov.OpenLocal("plain", "map")
		if err != nil {
			return err
		}
		keys := [][]byte{[]byte("a"), []byte("b")}
		vals := [][]byte{[]byte("1"), []byte("2")}
		for i, err := range e.client.PutMulti(self, e.srv.Addr(), db, keys, vals) {
			if err != nil {
				t.Errorf("PutMulti[%d]: %v", i, err)
			}
		}
		got, found, errs := e.client.GetMulti(self, e.srv.Addr(), db, keys)
		for i := range keys {
			if errs[i] != nil || !found[i] || string(got[i]) != string(vals[i]) {
				t.Errorf("GetMulti[%d] = %q %v %v", i, got[i], found[i], errs[i])
			}
		}
		for _, err := range e.client.PutMulti(self, e.srv.Addr(), db, keys, vals[:1]) {
			if err == nil {
				t.Error("length mismatch accepted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bs := e.cli.BatchStats(); bs.Flushes != 0 {
		t.Fatalf("unbatched instance recorded flushes: %+v", bs)
	}
}

func TestOpenPutGetOverRPC(t *testing.T) {
	e := newEnv(t, Config{})
	err := e.run(t, func(self *abt.ULT) error {
		db, err := e.prov.OpenLocal("db0", "map")
		if err != nil {
			return err
		}
		if err := e.client.Put(self, e.srv.Addr(), db, []byte("k1"), []byte("v1")); err != nil {
			return err
		}
		v, found, err := e.client.Get(self, e.srv.Addr(), db, []byte("k1"))
		if err != nil || !found || string(v) != "v1" {
			t.Errorf("Get = %q %v %v", v, found, err)
		}
		if _, found, _ := e.client.Get(self, e.srv.Addr(), db, []byte("nope")); found {
			t.Error("missing key found")
		}
		if n, err := e.prov.LocalLength(db); err != nil || n != 1 {
			t.Errorf("LocalLength = %d %v", n, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenDuplicateAndUnknownBackend(t *testing.T) {
	e := newEnv(t, Config{})
	if _, err := e.prov.OpenLocal("dup", "map"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.prov.OpenLocal("dup", "map"); err == nil {
		t.Error("duplicate open accepted")
	}
	if _, err := e.prov.OpenLocal("x", "rocksdb"); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestUnknownDatabaseErrors(t *testing.T) {
	e := newEnv(t, Config{})
	err := e.run(t, func(self *abt.ULT) error {
		if err := e.client.Put(self, e.srv.Addr(), 42, []byte("k"), []byte("v")); err == nil {
			t.Error("put to unknown db accepted")
		} else if !strings.Contains(err.Error(), "unknown database") {
			t.Errorf("err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutPackedRoundTrip(t *testing.T) {
	e := newEnv(t, Config{})
	const n = 200
	err := e.run(t, func(self *abt.ULT) error {
		db, err := e.prov.OpenLocal("packed", "map")
		if err != nil {
			return err
		}
		keys := make([][]byte, n)
		vals := make([][]byte, n)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%04d", i))
			vals[i] = []byte(fmt.Sprintf("val-%04d", i))
		}
		if err := e.client.PutPacked(self, e.srv.Addr(), db, keys, vals); err != nil {
			return err
		}
		if cnt, err := e.prov.LocalLength(db); err != nil || cnt != n {
			t.Errorf("LocalLength = %d %v", cnt, err)
		}
		v, found, err := e.client.Get(self, e.srv.Addr(), db, []byte("key-0123"))
		if err != nil || !found || string(v) != "val-0123" {
			t.Errorf("Get packed = %q %v %v", v, found, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestListKeyvalsOrdered(t *testing.T) {
	e := newEnv(t, Config{})
	err := e.run(t, func(self *abt.ULT) error {
		db, err := e.prov.OpenLocal("listdb", "map")
		if err != nil {
			return err
		}
		for _, k := range []string{"e", "a", "c", "b", "d"} {
			if err := e.client.Put(self, e.srv.Addr(), db, []byte(k), []byte("v"+k)); err != nil {
				return err
			}
		}
		var l Listing
		if err := e.client.ListKeyvals(self, e.srv.Addr(), db, []byte("b"), 3, &l); err != nil {
			return err
		}
		want := []string{"b", "c", "d"}
		if len(l.Keys) != 3 || len(l.Values) != 3 {
			t.Fatalf("keys = %q, values = %q", l.Keys, l.Values)
		}
		for i := range want {
			if string(l.Keys[i]) != want[i] || string(l.Values[i]) != "v"+want[i] {
				t.Errorf("list[%d] = %s=%s", i, l.Keys[i], l.Values[i])
			}
		}
		// Reused for a shorter listing: replaced, not appended to.
		if err := e.client.ListKeyvals(self, e.srv.Addr(), db, []byte("e"), 3, &l); err != nil {
			return err
		}
		if len(l.Keys) != 1 || string(l.Keys[0]) != "e" || string(l.Values[0]) != "ve" {
			t.Errorf("second listing = %q=%q", l.Keys, l.Values)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSerialBackendBlocksConcurrentPuts(t *testing.T) {
	// The map backend serializes writers through a ULT mutex; concurrent
	// puts must pile up as blocked ULTs in the handler pool — the
	// paper's Figure 10 signal.
	cfg := Config{PutCostPerKey: 3 * time.Millisecond}
	e := newEnv(t, cfg)
	var db uint32
	if err := e.run(t, func(self *abt.ULT) error {
		var err error
		db, err = e.prov.OpenLocal("serial", "map")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	const writers = 6
	done := make([]*abt.ULT, writers)
	for i := 0; i < writers; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		done[i] = e.cli.Run("w", func(self *abt.ULT) {
			e.client.Put(self, e.srv.Addr(), db, k, []byte("v"))
		})
	}
	// While the writers contend, the handler pool must report blocked
	// ULTs at some point.
	deadline := time.Now().Add(5 * time.Second)
	sawBlocked := false
	for time.Now().Before(deadline) && !sawBlocked {
		if e.srv.HandlerPool().Blocked() >= 2 {
			sawBlocked = true
		}
		time.Sleep(time.Millisecond)
	}
	for _, u := range done {
		u.Join(nil)
	}
	if !sawBlocked {
		t.Fatal("no blocked handler ULTs observed under serialized backend contention")
	}
}

func TestShardedBackendDoesNotSerialize(t *testing.T) {
	cfg := Config{PutCostPerKey: 2 * time.Millisecond}
	e := newEnv(t, cfg)
	var db uint32
	if err := e.run(t, func(self *abt.ULT) error {
		var err error
		db, err = e.prov.OpenLocal("conc", "shardedmap")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const writers = 4
	done := make([]*abt.ULT, writers)
	for i := 0; i < writers; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		done[i] = e.cli.Run("w", func(self *abt.ULT) {
			e.client.Put(self, e.srv.Addr(), db, k, []byte("v"))
		})
	}
	for _, u := range done {
		u.Join(nil)
	}
	elapsed := time.Since(start)
	// 4 writers x 2ms on 4 handler streams should overlap: well under
	// the 8ms serial floor.
	if elapsed > 7*time.Millisecond*writers {
		t.Fatalf("concurrent puts took %v, looks serialized", elapsed)
	}
}
