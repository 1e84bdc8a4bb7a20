package na

import (
	"errors"
	"testing"
	"time"
)

// fastFabric returns a fabric with negligible modeled latency so fault
// tests run quickly.
func fastFabric() *Fabric {
	return NewFabric(Config{LatencyLocal: time.Microsecond, LatencyRemote: time.Microsecond})
}

func pair(t *testing.T, f *Fabric) (*Endpoint, *Endpoint) {
	t.Helper()
	a, err := f.NewEndpoint("n0", "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.NewEndpoint("n1", "b")
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// drain polls ep until want events arrive or the deadline passes.
func drain(t *testing.T, ep *Endpoint, want int, d time.Duration) []Event {
	t.Helper()
	deadline := time.Now().Add(d)
	var evs []Event
	for len(evs) < want && time.Now().Before(deadline) {
		ep.Wait(time.Millisecond)
		evs = append(evs, ep.PollInto(nil, 16)...)
	}
	return evs
}

func TestFaultPartitionRefusesSend(t *testing.T) {
	f := fastFabric()
	a, b := pair(t, f)
	f.SetFaultPlan(NewFaultPlan(1).PartitionOneWay(a.Addr(), b.Addr()))

	a.Send(b.Addr(), TagUnexpected, []byte("x"), "ctx")
	evs := drain(t, a, 1, time.Second)
	if len(evs) != 1 || evs[0].Kind != EvError {
		t.Fatalf("events = %+v, want one EvError", evs)
	}
	if !errors.Is(evs[0].Err, ErrPartitioned) {
		t.Fatalf("err = %v, want ErrPartitioned", evs[0].Err)
	}
	if got := drain(t, b, 1, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("receiver saw %+v across a partition", got)
	}
	if a.FaultRefusals() != 1 || f.FaultStats().Refusals != 1 {
		t.Fatalf("refusals: ep=%d fabric=%d, want 1/1", a.FaultRefusals(), f.FaultStats().Refusals)
	}

	// One-way: the reverse direction still flows.
	b.Send(a.Addr(), TagUnexpected, []byte("y"), nil)
	if evs := drain(t, a, 1, time.Second); len(evs) == 0 || evs[0].Kind != EvRecv {
		t.Fatalf("reverse direction blocked: %+v", evs)
	}
}

func TestFaultDropIsSilentLoss(t *testing.T) {
	f := fastFabric()
	a, b := pair(t, f)
	plan := NewFaultPlan(7)
	plan.SetLink(a.Addr(), b.Addr(), FaultRule{DropProb: 1})
	f.SetFaultPlan(plan)

	a.Send(b.Addr(), TagUnexpected, []byte("x"), "ctx")
	// Sender still completes (silent loss), receiver sees nothing.
	evs := drain(t, a, 1, time.Second)
	if len(evs) != 1 || evs[0].Kind != EvSendDone {
		t.Fatalf("sender events = %+v, want EvSendDone", evs)
	}
	if got := drain(t, b, 1, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("dropped message delivered: %+v", got)
	}
	if a.FaultDrops() != 1 {
		t.Fatalf("FaultDrops = %d, want 1", a.FaultDrops())
	}
}

func TestFaultDuplicateDeliversTwice(t *testing.T) {
	f := fastFabric()
	a, b := pair(t, f)
	plan := NewFaultPlan(7)
	plan.SetLink(a.Addr(), b.Addr(), FaultRule{DupProb: 1})
	f.SetFaultPlan(plan)

	a.Send(b.Addr(), TagUnexpected, []byte("x"), nil)
	evs := drain(t, b, 2, time.Second)
	if len(evs) != 2 || evs[0].Kind != EvRecv || evs[1].Kind != EvRecv {
		t.Fatalf("receiver events = %+v, want two EvRecv", evs)
	}
	if a.FaultDups() != 1 {
		t.Fatalf("FaultDups = %d, want 1", a.FaultDups())
	}
}

func TestFaultDelayInflatesLatency(t *testing.T) {
	f := fastFabric()
	a, b := pair(t, f)
	plan := NewFaultPlan(7)
	plan.SetLink(a.Addr(), b.Addr(), FaultRule{DelayProb: 1, Delay: 30 * time.Millisecond})
	f.SetFaultPlan(plan)

	start := time.Now()
	a.Send(b.Addr(), TagUnexpected, []byte("x"), nil)
	evs := drain(t, b, 1, 2*time.Second)
	if len(evs) != 1 {
		t.Fatalf("no delivery: %+v", evs)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("delivered in %v, want >= 30ms injected delay", elapsed)
	}
	if a.FaultDelays() != 1 {
		t.Fatalf("FaultDelays = %d, want 1", a.FaultDelays())
	}
}

func TestFaultPlanHotSwapHealsPartition(t *testing.T) {
	f := fastFabric()
	a, b := pair(t, f)
	f.SetFaultPlan(NewFaultPlan(1).Partition(a.Addr(), b.Addr()))
	a.Send(b.Addr(), TagUnexpected, []byte("x"), nil)
	if evs := drain(t, a, 1, time.Second); len(evs) != 1 || evs[0].Kind != EvError {
		t.Fatalf("partitioned send = %+v", evs)
	}

	// Heal at runtime; traffic flows again.
	f.SetFaultPlan(nil)
	if f.faults.Load() != nil {
		t.Fatal("plan still installed after heal")
	}
	a.Send(b.Addr(), TagUnexpected, []byte("y"), nil)
	if evs := drain(t, b, 1, time.Second); len(evs) != 1 || evs[0].Kind != EvRecv {
		t.Fatalf("healed send = %+v", evs)
	}
}

func TestFaultDecisionsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []bool {
		f := fastFabric()
		a, b := pair(t, f)
		plan := NewFaultPlan(seed)
		plan.SetLink(a.Addr(), b.Addr(), FaultRule{DropProb: 0.5})
		f.SetFaultPlan(plan)
		const n = 64
		outcomes := make([]bool, 0, n)
		for i := 0; i < n; i++ {
			before := a.FaultDrops()
			a.Send(b.Addr(), TagUnexpected, []byte("x"), nil)
			outcomes = append(outcomes, a.FaultDrops() > before)
		}
		return outcomes
	}
	a1, a2, b1 := run(42), run(42), run(43)
	if len(a1) != len(a2) {
		t.Fatal("length mismatch")
	}
	same := true
	for i := range a1 {
		if a1[i] != a2[i] {
			same = false
		}
	}
	if !same {
		t.Fatal("same seed produced different fault schedules")
	}
	diff := false
	for i := range a1 {
		if a1[i] != b1[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical fault schedules")
	}
	drops := 0
	for _, d := range a1 {
		if d {
			drops++
		}
	}
	if drops == 0 || drops == len(a1) {
		t.Fatalf("drop count %d/%d not probabilistic", drops, len(a1))
	}
}

func TestFaultRuleWildcardMatching(t *testing.T) {
	p := NewFaultPlan(1)
	p.Default = FaultRule{DelayProb: 0.1, Delay: time.Millisecond}
	p.SetLink("n0/a", "n1/b", FaultRule{DropProb: 0.9})
	p.SetLink("n0/a", "", FaultRule{DupProb: 0.5})
	p.SetLink("", "n1/c", FaultRule{DelayProb: 1, Delay: time.Second})

	if r := p.RuleFor("n0/a", "n1/b"); r.DropProb != 0.9 {
		t.Fatalf("exact match lost: %+v", r)
	}
	if r := p.RuleFor("n0/a", "n9/z"); r.DupProb != 0.5 {
		t.Fatalf("from-wildcard lost: %+v", r)
	}
	if r := p.RuleFor("n9/z", "n1/c"); r.Delay != time.Second {
		t.Fatalf("to-wildcard lost: %+v", r)
	}
	if r := p.RuleFor("n9/z", "n9/y"); r.Delay != time.Millisecond {
		t.Fatalf("default lost: %+v", r)
	}
}

func TestFaultRDMAIgnoresDropTakesDelayAndPartition(t *testing.T) {
	f := fastFabric()
	a, b := pair(t, f)
	buf := make([]byte, 8)
	h := b.RegisterMemory(buf)

	plan := NewFaultPlan(3)
	plan.SetLink(a.Addr(), b.Addr(), FaultRule{DropProb: 1})
	f.SetFaultPlan(plan)
	a.Put(h, 0, []byte{1, 2, 3, 4}, "rdma")
	evs := drain(t, a, 1, time.Second)
	if len(evs) != 1 || evs[0].Kind != EvRDMADone {
		t.Fatalf("rdma under drop plan = %+v, want EvRDMADone (drops do not apply)", evs)
	}

	f.SetFaultPlan(NewFaultPlan(3).PartitionOneWay(a.Addr(), b.Addr()))
	a.Put(h, 0, []byte{5, 6, 7, 8}, "rdma")
	evs = drain(t, a, 1, time.Second)
	if len(evs) != 1 || evs[0].Kind != EvError || !errors.Is(evs[0].Err, ErrPartitioned) {
		t.Fatalf("rdma across partition = %+v, want ErrPartitioned", evs)
	}
}
