package ssg

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/na"
)

// TestViewSnapshotUnderChurn: the satellite -race stress test. Many
// client ULTs hammer join/leave/observe on one group while readers walk
// View().Members concurrently — the copy-on-write snapshot must never
// tear (a view's member slice is immutable once published), and every
// observed view must be internally consistent: ranks sorted, no
// duplicate addresses.
func TestViewSnapshotUnderChurn(t *testing.T) {
	e := newEnv(t)
	g, err := e.host.Create("churn", true)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)

	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		u := e.cli.Run(fmt.Sprintf("churn-%d", w), func(self *abt.ULT) {
			defer wg.Done()
			addr := fmt.Sprintf("node%d/member", w)
			for i := 0; i < iters; i++ {
				if _, _, err := e.sc.Join(self, e.root.Addr(), "churn", addr); err != nil {
					errs <- err
					return
				}
				if v, err := e.sc.Observe(self, e.root.Addr(), "churn"); err != nil {
					errs <- err
					return
				} else if err := checkView(v); err != nil {
					errs <- err
					return
				}
				if err := e.sc.Leave(self, e.root.Addr(), "churn", addr); err != nil {
					errs <- err
					return
				}
			}
		})
		defer u.Join(nil)
	}

	// Root-local readers race the churn directly against the group
	// state (no RPC serialization to hide a torn snapshot).
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := g.View()
				if err := checkView(v); err != nil {
					errs <- err
					return
				}
				if len(v.Members) > 0 {
					if _, ok := v.MemberFor([]byte("k")); !ok {
						errs <- fmt.Errorf("MemberFor failed on non-empty view")
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if v := g.View(); len(v.Members) != 1 {
		t.Fatalf("final view = %+v, want only the root", v)
	}
}

func checkView(v View) error {
	seen := make(map[string]bool, len(v.Members))
	for i, m := range v.Members {
		if m.Addr == "" {
			return fmt.Errorf("view v%d has empty addr at %d: %+v", v.Version, i, v.Members)
		}
		if seen[m.Addr] {
			return fmt.Errorf("view v%d has duplicate addr %s", v.Version, m.Addr)
		}
		seen[m.Addr] = true
		if i > 0 && v.Members[i-1].Rank >= m.Rank {
			return fmt.Errorf("view v%d ranks unsorted: %+v", v.Version, v.Members)
		}
	}
	return nil
}

// agentEnv: a root host plus two server-mode agents on their own nodes.
type agentEnv struct {
	fabric *na.Fabric
	root   *margo.Instance
	host   *Host
	insts  []*margo.Instance
	agents []*Agent
}

func newAgentEnv(t *testing.T, n int) *agentEnv {
	t.Helper()
	f := na.NewFabric(na.DefaultConfig())
	root, err := margo.New(margo.Options{Mode: margo.ModeServer, Node: "n0", Name: "root", Fabric: f})
	if err != nil {
		t.Fatal(err)
	}
	e := &agentEnv{fabric: f, root: root}
	host, err := NewHost(root)
	if err != nil {
		t.Fatal(err)
	}
	e.host = host
	for i := 0; i < n; i++ {
		inst, err := margo.New(margo.Options{
			Mode: margo.ModeServer, Node: fmt.Sprintf("n%d", i+1),
			Name: fmt.Sprintf("agent%d", i), Fabric: f,
		})
		if err != nil {
			t.Fatal(err)
		}
		ag, err := NewAgent(inst)
		if err != nil {
			t.Fatal(err)
		}
		e.insts = append(e.insts, inst)
		e.agents = append(e.agents, ag)
	}
	t.Cleanup(func() {
		host.Close()
		for _, inst := range e.insts {
			inst.Shutdown()
		}
		root.Shutdown()
	})
	return e
}

func (e *agentEnv) run(t *testing.T, i int, fn func(self *abt.ULT) error) {
	t.Helper()
	var err error
	u := e.insts[i].Run("t", func(self *abt.ULT) { err = fn(self) })
	if jerr := u.Join(nil); jerr != nil {
		t.Fatal(jerr)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAgentPushedDeltas: a watcher agent subscribes without joining; a
// member agent joins and leaves. The watcher must receive both deltas
// as pushes (no polling) with monotonically increasing versions, and
// its cached view must converge to each new membership.
func TestAgentPushedDeltas(t *testing.T) {
	e := newAgentEnv(t, 2)
	if _, err := e.host.Create("svc", true); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var events []Event
	e.agents[0].OnEvent("svc", func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	e.run(t, 0, func(self *abt.ULT) error {
		v, err := e.agents[0].Watch(self, e.root.Addr(), "svc")
		if err != nil {
			return err
		}
		if len(v.Members) != 1 {
			return fmt.Errorf("watch view = %+v", v)
		}
		return nil
	})

	e.run(t, 1, func(self *abt.ULT) error {
		_, _, err := e.agents[1].Join(self, e.root.Addr(), "svc")
		return err
	})
	waitFor(t, 2*time.Second, "join push", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) >= 1
	})

	e.run(t, 1, func(self *abt.ULT) error {
		return e.agents[1].Leave(self, e.root.Addr(), "svc")
	})
	waitFor(t, 2*time.Second, "leave push", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) >= 2
	})

	mu.Lock()
	events = append([]Event(nil), events...)
	mu.Unlock()
	if events[0].Type != EventJoin || events[0].Member.Addr != e.insts[1].Addr() {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[1].Type != EventLeave || events[1].Member.Addr != e.insts[1].Addr() {
		t.Fatalf("event 1 = %+v", events[1])
	}
	if events[0].View.Version >= events[1].View.Version {
		t.Fatalf("versions not increasing: %d then %d", events[0].View.Version, events[1].View.Version)
	}
	if n := len(events[1].View.Members); n != 1 {
		t.Fatalf("the leave pushed a view of %d members, want 1", n)
	}
	e.run(t, 0, func(self *abt.ULT) error {
		v, err := e.agents[0].Refresh(self, e.root.Addr(), "svc")
		if err == nil && v.Version != events[1].View.Version {
			err = fmt.Errorf("refreshed view %+v, want the pushed version %d", v, events[1].View.Version)
		}
		return err
	})
}
