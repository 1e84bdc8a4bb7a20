package ssg

import (
	"strings"
	"testing"
	"testing/quick"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/na"
)

type env struct {
	root *margo.Instance
	host *Host
	cli  *margo.Instance
	sc   *Client
}

func newEnv(t *testing.T) *env {
	t.Helper()
	f := na.NewFabric(na.DefaultConfig())
	root, err := margo.New(margo.Options{Mode: margo.ModeServer, Node: "n0", Name: "root", Fabric: f})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := margo.New(margo.Options{Mode: margo.ModeClient, Node: "n1", Name: "cli", Fabric: f})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Shutdown(); root.Shutdown() })
	host, err := NewHost(root)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewClient(cli)
	if err != nil {
		t.Fatal(err)
	}
	return &env{root: root, host: host, cli: cli, sc: sc}
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

func TestCreateJoinObserveLeave(t *testing.T) {
	e := newEnv(t)
	g, err := e.host.Create("hepnos-servers", true)
	if err != nil {
		t.Fatal(err)
	}
	if v := g.View(); len(v.Members) != 1 || v.Members[0].Addr != e.root.Addr() {
		t.Fatalf("initial view = %+v", v)
	}
	err = e.run(t, func(self *abt.ULT) error {
		rank, view, err := e.sc.Join(self, e.root.Addr(), "hepnos-servers", "")
		if err != nil {
			return err
		}
		if rank != 1 {
			t.Errorf("rank = %d, want 1", rank)
		}
		if len(view.Members) != 2 || view.Version != 2 {
			t.Errorf("view = %+v", view)
		}
		// Observe sees the same membership.
		obs, err := e.sc.Observe(self, e.root.Addr(), "hepnos-servers")
		if err != nil {
			return err
		}
		if len(obs.Members) != 2 || obs.Version != view.Version {
			t.Errorf("observe = %+v", obs)
		}
		if obs.Addrs()[0] != e.root.Addr() || obs.Addrs()[1] != e.cli.Addr() {
			t.Errorf("addrs = %v", obs.Addrs())
		}
		// Leave and re-observe.
		if err := e.sc.Leave(self, e.root.Addr(), "hepnos-servers", ""); err != nil {
			return err
		}
		obs, err = e.sc.Observe(self, e.root.Addr(), "hepnos-servers")
		if err != nil {
			return err
		}
		if len(obs.Members) != 1 || obs.Version != 3 {
			t.Errorf("after leave = %+v", obs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJoinIdempotent(t *testing.T) {
	e := newEnv(t)
	if _, err := e.host.Create("g", false); err != nil {
		t.Fatal(err)
	}
	err := e.run(t, func(self *abt.ULT) error {
		r1, v1, err := e.sc.Join(self, e.root.Addr(), "g", "node9/extern")
		if err != nil {
			return err
		}
		r2, v2, err := e.sc.Join(self, e.root.Addr(), "g", "node9/extern")
		if err != nil {
			return err
		}
		if r1 != r2 {
			t.Errorf("re-join changed rank: %d vs %d", r1, r2)
		}
		if v2.Version != v1.Version {
			t.Errorf("re-join bumped version: %d vs %d", v2.Version, v1.Version)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnknownGroupAndNotMember(t *testing.T) {
	e := newEnv(t)
	e.host.Create("exists", false)
	err := e.run(t, func(self *abt.ULT) error {
		if _, _, err := e.sc.Join(self, e.root.Addr(), "ghost", ""); err == nil {
			t.Error("join unknown group accepted")
		} else if !strings.Contains(err.Error(), "unknown group") {
			t.Errorf("err = %v", err)
		}
		if _, err := e.sc.Observe(self, e.root.Addr(), "ghost"); err == nil {
			t.Error("observe unknown group accepted")
		}
		if err := e.sc.Leave(self, e.root.Addr(), "exists", ""); err == nil {
			t.Error("leave without join accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreateDuplicateRejected(t *testing.T) {
	e := newEnv(t)
	if _, err := e.host.Create("dup", false); err != nil {
		t.Fatal(err)
	}
	if _, err := e.host.Create("dup", false); err == nil {
		t.Fatal("duplicate group accepted")
	}
}

func TestMemberForDeterministicAndCovering(t *testing.T) {
	v := View{Members: []Member{
		{Rank: 0, Addr: "a"}, {Rank: 1, Addr: "b"}, {Rank: 2, Addr: "c"},
	}}
	prop := func(key []byte) bool {
		m1, ok1 := v.MemberFor(key)
		m2, ok2 := v.MemberFor(key)
		return ok1 && ok2 && m1 == m2
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	// All members reachable over many keys.
	hit := map[string]bool{}
	for i := 0; i < 200; i++ {
		m, _ := v.MemberFor([]byte{byte(i), byte(i >> 4)})
		hit[m.Addr] = true
	}
	if len(hit) != 3 {
		t.Fatalf("MemberFor covered %d of 3 members", len(hit))
	}
	// Empty view.
	empty := View{}
	if _, ok := empty.MemberFor([]byte("x")); ok {
		t.Fatal("empty view returned a member")
	}
}
