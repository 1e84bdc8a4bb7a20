package bake

import (
	"bytes"
	"strings"
	"testing"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/na"
)

type env struct {
	srv, cli *margo.Instance
	prov     *Provider
	client   *Client
}

func newEnv(t *testing.T) *env {
	t.Helper()
	f := na.NewFabric(na.DefaultConfig())
	srv, err := margo.New(margo.Options{Mode: margo.ModeServer, Node: "n1", Name: "bake", Fabric: f})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := margo.New(margo.Options{Mode: margo.ModeClient, Node: "n0", Name: "cli", Fabric: f})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Shutdown(); srv.Shutdown() })
	prov, err := RegisterProvider(srv)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cli)
	if err != nil {
		t.Fatal(err)
	}
	return &env{srv: srv, cli: cli, prov: prov, client: client}
}

// run executes fn in a client ULT and propagates its error.
// read fills buf from the region at off, exposing buf as the window the
// target pushes into.
func (e *env) read(self *abt.ULT, rid, off uint64, buf []byte) error {
	bulk := e.cli.BulkCreate(buf)
	defer e.cli.BulkFree(bulk)
	return e.client.ReadInto(self, e.srv.Addr(), rid, off, bulk, uint64(len(buf)))
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

func TestCreateWritePersistRead(t *testing.T) {
	e := newEnv(t)
	data := bytes.Repeat([]byte("abcdefgh"), 512) // 4 KiB
	err := e.run(t, func(self *abt.ULT) error {
		rid, err := e.client.Create(self, e.srv.Addr(), uint64(len(data)))
		if err != nil {
			return err
		}
		if err := e.client.Write(self, e.srv.Addr(), rid, 0, data); err != nil {
			return err
		}
		if err := e.client.Persist(self, e.srv.Addr(), rid); err != nil {
			return err
		}
		if !e.prov.Persisted(rid) {
			t.Error("region not marked persisted")
		}
		size, err := e.client.GetSize(self, e.srv.Addr(), rid)
		if err != nil {
			return err
		}
		if size != uint64(len(data)) {
			t.Errorf("size = %d", size)
		}
		back := make([]byte, len(data))
		if err := e.read(self, rid, 0, back); err != nil {
			return err
		}
		if !bytes.Equal(back, data) {
			t.Error("read-back mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartialWindowedIO(t *testing.T) {
	e := newEnv(t)
	err := e.run(t, func(self *abt.ULT) error {
		rid, err := e.client.Create(self, e.srv.Addr(), 100)
		if err != nil {
			return err
		}
		if err := e.client.Write(self, e.srv.Addr(), rid, 10, []byte("HELLO")); err != nil {
			return err
		}
		buf := make([]byte, 5)
		if err := e.read(self, rid, 10, buf); err != nil {
			return err
		}
		if string(buf) != "HELLO" {
			t.Errorf("windowed read = %q", buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrorsOutOfBoundsAndUnknownRegion(t *testing.T) {
	e := newEnv(t)
	err := e.run(t, func(self *abt.ULT) error {
		rid, err := e.client.Create(self, e.srv.Addr(), 16)
		if err != nil {
			return err
		}
		if err := e.client.Write(self, e.srv.Addr(), rid, 10, make([]byte, 16)); err == nil {
			t.Error("out-of-bounds write accepted")
		} else if !strings.Contains(err.Error(), "beyond region end") {
			t.Errorf("err = %v", err)
		}
		if err := e.read(self, rid, 10, make([]byte, 16)); err == nil {
			t.Error("out-of-bounds read accepted")
		}
		if err := e.client.Persist(self, e.srv.Addr(), 999); err == nil {
			t.Error("unknown region persist accepted")
		}
		if _, err := e.client.GetSize(self, e.srv.Addr(), 999); err == nil {
			t.Error("unknown region get_size accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
