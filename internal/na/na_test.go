package na

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func newPair(t testing.TB, cfg Config) (*Fabric, *Endpoint, *Endpoint) {
	t.Helper()
	f := NewFabric(cfg)
	a, err := f.NewEndpoint("node0", "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.NewEndpoint("node1", "b")
	if err != nil {
		t.Fatal(err)
	}
	return f, a, b
}

// waitEvents polls ep until n events arrive or the deadline passes.
func waitEvents(t *testing.T, ep *Endpoint, n int) []Event {
	t.Helper()
	var out []Event
	deadline := time.Now().Add(2 * time.Second)
	for len(out) < n {
		if !ep.Wait(time.Until(deadline)) {
			t.Fatalf("timed out: got %d/%d events", len(out), n)
		}
		out = append(out, ep.PollInto(nil, n-len(out))...)
	}
	return out
}

func TestSendDelivers(t *testing.T) {
	_, a, b := newPair(t, DefaultConfig())
	a.Send(b.Addr(), TagUnexpected, []byte("hello"), "ctx1")

	evs := waitEvents(t, b, 1)
	if evs[0].Kind != EvRecv {
		t.Fatalf("kind = %v, want recv", evs[0].Kind)
	}
	msg := evs[0].Msg
	if string(msg.Data) != "hello" || msg.From != a.Addr() || msg.Tag != TagUnexpected {
		t.Fatalf("msg = %+v", msg)
	}

	sevs := waitEvents(t, a, 1)
	if sevs[0].Kind != EvSendDone || sevs[0].Ctx != "ctx1" {
		t.Fatalf("send completion = %+v", sevs[0])
	}
	if a.Sends() != 1 || b.Recvs() != 1 {
		t.Fatalf("counters: sends=%d recvs=%d", a.Sends(), b.Recvs())
	}
}

func TestSendToUnknownAddressFails(t *testing.T) {
	f := NewFabric(DefaultConfig())
	a, _ := f.NewEndpoint("n", "a")
	a.Send("n/ghost", 1, nil, "x")
	evs := waitEvents(t, a, 1)
	if evs[0].Kind != EvError || !errors.Is(evs[0].Err, ErrUnreachable) {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestSendToClosedEndpointFails(t *testing.T) {
	_, a, b := newPair(t, DefaultConfig())
	b.Close()
	if !b.Closed() {
		t.Fatal("Closed() = false")
	}
	a.Send(b.Addr(), 1, []byte("x"), "c")
	evs := waitEvents(t, a, 1)
	if evs[0].Kind != EvError || !errors.Is(evs[0].Err, ErrClosed) {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestCloseDropsInflight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LatencyRemote = 20 * time.Millisecond
	_, a, b := newPair(t, cfg)
	a.Send(b.Addr(), 1, []byte("x"), "c")
	b.Close() // before delivery
	evs := waitEvents(t, a, 1)
	if evs[0].Kind != EvError {
		t.Fatalf("event = %+v, want error for dropped delivery", evs[0])
	}
	if b.Pending() != 0 {
		t.Fatal("closed endpoint received a message")
	}
}

func TestDuplicateEndpointRejected(t *testing.T) {
	f := NewFabric(DefaultConfig())
	if _, err := f.NewEndpoint("n", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.NewEndpoint("n", "a"); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
}

func TestRDMAGet(t *testing.T) {
	_, a, b := newPair(t, DefaultConfig())
	src := []byte("0123456789")
	h := b.RegisterMemory(src)
	dst := make([]byte, 4)
	a.Get(h, 3, dst, "get1")
	evs := waitEvents(t, a, 1)
	if evs[0].Kind != EvRDMADone || evs[0].Ctx != "get1" {
		t.Fatalf("event = %+v", evs[0])
	}
	if !bytes.Equal(dst, []byte("3456")) {
		t.Fatalf("dst = %q", dst)
	}
}

func TestRDMAPut(t *testing.T) {
	_, a, b := newPair(t, DefaultConfig())
	buf := make([]byte, 8)
	h := b.RegisterMemory(buf)
	a.Put(h, 2, []byte("XY"), nil)
	waitEvents(t, a, 1)
	if !bytes.Equal(buf, []byte{0, 0, 'X', 'Y', 0, 0, 0, 0}) {
		t.Fatalf("buf = %q", buf)
	}
}

func TestRDMABadHandle(t *testing.T) {
	_, a, b := newPair(t, DefaultConfig())
	h := b.RegisterMemory(make([]byte, 4))
	b.DeregisterMemory(h)
	a.Get(h, 0, make([]byte, 1), nil)
	evs := waitEvents(t, a, 1)
	if evs[0].Kind != EvError || !errors.Is(evs[0].Err, ErrBadMemory) {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestRDMAOutOfBounds(t *testing.T) {
	_, a, b := newPair(t, DefaultConfig())
	h := b.RegisterMemory(make([]byte, 4))
	a.Get(h, 2, make([]byte, 8), nil)
	evs := waitEvents(t, a, 1)
	if evs[0].Kind != EvError || !errors.Is(evs[0].Err, ErrBounds) {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestPollBatchBounded(t *testing.T) {
	_, a, b := newPair(t, DefaultConfig())
	const n = 20
	for i := 0; i < n; i++ {
		a.Send(b.Addr(), TagUnexpected, []byte{byte(i)}, nil)
	}
	// Wait for all to land.
	deadline := time.Now().Add(2 * time.Second)
	for b.Pending() < n {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d", b.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	batch := b.PollInto(nil, 16)
	if len(batch) != 16 {
		t.Fatalf("poll(16) = %d events", len(batch))
	}
	rest := b.PollInto(nil, 16)
	if len(rest) != 4 {
		t.Fatalf("second poll = %d events", len(rest))
	}
	// FIFO order.
	for i, ev := range append(batch, rest...) {
		if ev.Msg.Data[0] != byte(i) {
			t.Fatalf("event %d out of order: %d", i, ev.Msg.Data[0])
		}
	}
}

func TestPollZeroAndEmpty(t *testing.T) {
	_, a, _ := newPair(t, DefaultConfig())
	if evs := a.PollInto(nil, 16); evs != nil {
		t.Fatalf("poll on empty queue = %v", evs)
	}
	if evs := a.PollInto(nil, 0); evs != nil {
		t.Fatalf("poll(0) = %v", evs)
	}
}

func TestWaitTimeout(t *testing.T) {
	_, a, _ := newPair(t, DefaultConfig())
	start := time.Now()
	if a.Wait(10 * time.Millisecond) {
		t.Fatal("Wait reported events on empty queue")
	}
	if time.Since(start) < 8*time.Millisecond {
		t.Fatal("Wait returned too early")
	}
}

func TestWaitZeroNonBlocking(t *testing.T) {
	_, a, b := newPair(t, DefaultConfig())
	if a.Wait(0) {
		t.Fatal("Wait(0) true on empty queue")
	}
	b.Send(a.Addr(), 1, nil, nil)
	waitEvents(t, a, 1)
}

func TestLatencyModel(t *testing.T) {
	cfg := Config{LatencyLocal: time.Millisecond, LatencyRemote: 30 * time.Millisecond}
	f := NewFabric(cfg)
	a, _ := f.NewEndpoint("node0", "a")
	b, _ := f.NewEndpoint("node0", "b")
	c, _ := f.NewEndpoint("node1", "c")

	start := time.Now()
	a.Send(b.Addr(), 1, nil, nil)
	waitEvents(t, b, 1)
	local := time.Since(start)

	start = time.Now()
	a.Send(c.Addr(), 1, nil, nil)
	waitEvents(t, c, 1)
	remote := time.Since(start)

	if remote < 25*time.Millisecond {
		t.Fatalf("remote latency = %v, want >= ~30ms", remote)
	}
	if local >= remote {
		t.Fatalf("local (%v) not faster than remote (%v)", local, remote)
	}
}

func TestBandwidthModel(t *testing.T) {
	cfg := Config{LatencyLocal: 0, LatencyRemote: 0, Bandwidth: 1e6} // 1 MB/s
	f := NewFabric(cfg)
	d := f.delay("a", "b", 50_000) // 50 KB at 1 MB/s = 50ms
	if d < 45*time.Millisecond || d > 80*time.Millisecond {
		t.Fatalf("delay = %v, want ~50ms", d)
	}
}

func TestCQOverflowCounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CQDepth = 4
	_, a, b := newPair(t, cfg)
	for i := 0; i < 10; i++ {
		a.Send(b.Addr(), 1, nil, nil)
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.Pending() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d", b.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	// Give stragglers time to overflow.
	time.Sleep(20 * time.Millisecond)
	if b.Overflows() == 0 {
		t.Fatal("no overflow recorded on tiny CQ")
	}
}

func TestEventResidenceTimestamp(t *testing.T) {
	_, a, b := newPair(t, DefaultConfig())
	a.Send(b.Addr(), 1, nil, nil)
	deadline := time.Now().Add(2 * time.Second)
	for b.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no event")
		}
	}
	time.Sleep(5 * time.Millisecond) // let it sit in the queue
	ev := b.PollInto(nil, 1)[0]
	if res := time.Since(ev.Posted); res < 4*time.Millisecond {
		t.Fatalf("residence = %v, want >= 4ms", res)
	}
}

func TestEventKindString(t *testing.T) {
	names := map[EventKind]string{
		EvRecv: "recv", EvSendDone: "send_done",
		EvRDMADone: "rdma_done", EvError: "error", EventKind(9): "event(9)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
	}
}

func TestPerPairOrderingProperty(t *testing.T) {
	// Messages between one (src,dst) pair must arrive in send order
	// regardless of payload sizes (which perturb modeled delays).
	prop := func(sizes []uint16) bool {
		_, a, b := newPair(t, DefaultConfig())
		n := len(sizes)
		if n == 0 {
			return true
		}
		if n > 64 {
			sizes = sizes[:64]
			n = 64
		}
		for i, sz := range sizes {
			data := make([]byte, int(sz)%2048+4)
			data[0] = byte(i)
			a.Send(b.Addr(), TagUnexpected, data, nil)
		}
		got := waitEvents(t, b, n)
		for i, ev := range got {
			if ev.Msg.Data[0] != byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCQAccessors(t *testing.T) {
	_, a, b := newPair(t, DefaultConfig())
	const n = 5
	for i := 0; i < n; i++ {
		a.Send(b.Addr(), TagUnexpected, []byte("x"), i)
	}
	// Wait for all deliveries without draining b yet.
	deadline := time.Now().Add(2 * time.Second)
	for b.CQDepth() < n {
		if time.Now().After(deadline) {
			t.Fatalf("CQDepth = %d, want %d", b.CQDepth(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if got := b.EventsPosted(); got != n {
		t.Fatalf("EventsPosted = %d, want %d", got, n)
	}
	if got := b.EventsRead(); got != 0 {
		t.Fatalf("EventsRead before poll = %d, want 0", got)
	}
	if hwm := b.CQDepthHWM(); hwm < n {
		t.Fatalf("CQDepthHWM = %d, want >= %d", hwm, n)
	}
	waitEvents(t, b, n)
	if got := b.EventsRead(); got != n {
		t.Fatalf("EventsRead after poll = %d, want %d", got, n)
	}
	if got := b.CQDepth(); got != 0 {
		t.Fatalf("CQDepth after drain = %d, want 0", got)
	}
}

// TestSendAndDeliverAllocateNothing pins a message's whole trip — Send,
// the delivery chain, both completion queues, both bounded reads — at
// zero allocations once the chain and the rings exist: the message
// travels by value, and its frame is the caller's.
func TestSendAndDeliverAllocateNothing(t *testing.T) {
	_, a, b := newPair(t, Config{LatencyRemote: time.Microsecond})
	frame := make([]byte, 64)
	buf := make([]Event, 0, 16)
	ctx := new(int) // a pointer context, as Mercury passes: boxing it allocates nothing
	trip := func() {
		a.Send(b.Addr(), TagUnexpected, frame, ctx)
		for got := 0; got < 1; {
			for _, ev := range b.PollInto(buf, 16) {
				if ev.Kind != EvRecv || ev.Msg.From != a.Addr() || ev.Msg.To != b.Addr() || &ev.Msg.Data[0] != &frame[0] {
					t.Fatalf("received %+v", ev)
				}
				got++
			}
			runtime.Gosched()
		}
		for got := 0; got < 1; {
			for _, ev := range a.PollInto(buf, 16) {
				if ev.Kind != EvSendDone || ev.Ctx != any(ctx) {
					t.Fatalf("sender got %+v", ev)
				}
				got++
			}
			runtime.Gosched()
		}
	}
	for k := 0; k < 64; k++ {
		trip()
	}
	if n := testing.AllocsPerRun(1000, trip); n != 0 {
		t.Errorf("one message allocates %.2f objects, want 0", n)
	}
}

// TestCompletionQueueRingKeepsOrder reads a queue in small batches while
// it grows through several ring sizes with its head mid-array: events
// come out once each, in posting order, and a read slot no longer pins
// what it held.
func TestCompletionQueueRingKeepsOrder(t *testing.T) {
	c := newCompletionQueue(1 << 10)
	next, want := 0, 0
	post := func(n int) {
		for k := 0; k < n; k++ {
			c.post(Event{Kind: EvSendDone, Ctx: next})
			next++
		}
	}
	read := func(max int) {
		for _, ev := range c.pollInto(nil, max) {
			if ev.Ctx != any(want) {
				t.Fatalf("read event %v, want %d", ev.Ctx, want)
			}
			want++
		}
	}
	post(12)
	read(7)
	post(11) // wraps the 16-slot ring
	read(3)
	post(100) // grows it, with the head mid-array
	read(5)
	post(400)
	if got := c.len(); got != next-want {
		t.Fatalf("len = %d, want %d", got, next-want)
	}
	for c.len() > 0 {
		read(9)
	}
	if want != next {
		t.Fatalf("read %d of %d events", want, next)
	}
	for i := range c.q {
		if c.q[i].Ctx != nil {
			t.Fatalf("slot %d still holds %v after being read", i, c.q[i].Ctx)
		}
	}
	post(1<<10 + 5)
	if c.len() != 1<<10 || c.overflows.Load() != 5 {
		t.Fatalf("len %d, overflows %d at the bound", c.len(), c.overflows.Load())
	}
}

// BenchmarkDeliveryLateness measures how late the fabric delivers what
// it carries, by Endpoint.Lateness: a sender streams messages over the
// default fabric, at most 16 in flight, to a receiver that polls its
// completion queue, while GOMAXPROCS goroutines beside them spin in
// quanta of about a microsecond and yield, as execution streams do. It
// reports the mean lateness and the shares of deliveries more than 10 µs
// and more than 50 µs late: the starting point a change to how the
// fabric times its deliveries is measured against. It reads the host's
// timer wakes, so it is not gated.
func BenchmarkDeliveryLateness(b *testing.B) {
	const inFlight, spinQuantum = 16, 1000
	_, snd, rcv := newPair(b, DefaultConfig())
	var stop atomic.Bool
	var received atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := 1; !stop.Load(); x++ {
				if x%spinQuantum == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]Event, 0, 64)
		for received.Load() < int64(b.N) {
			evs := rcv.PollInto(buf, 64)
			if len(evs) == 0 {
				runtime.Gosched()
			}
			received.Add(int64(len(evs)))
		}
	}()
	b.ResetTimer()
	buf, msg := make([]Event, 0, 64), []byte("m")
	for i := 0; i < b.N; i++ {
		for int64(i)-received.Load() >= inFlight {
			snd.PollInto(buf, 64) // the send completions
			runtime.Gosched()
		}
		snd.Send(rcv.Addr(), TagUnexpected, msg, nil)
	}
	for received.Load() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	l := rcv.Lateness()
	if l.Count == 0 {
		b.Fatal("no deliveries counted")
	}
	n := float64(l.Count)
	b.ReportMetric(float64(l.SumNanos)/n, "late-ns/msg")
	b.ReportMetric(float64(l.Over10us)/n, "frac-late>10us")
	b.ReportMetric(float64(l.Over50us)/n, "frac-late>50us")
}

// TestLatenessCountsEveryDelivery: n sends on an idle fabric are n
// deliveries on the receiving endpoint, none late by a negative time,
// and the sender, which received nothing, counts none.
func TestLatenessCountsEveryDelivery(t *testing.T) {
	const n = 200
	_, a, b := newPair(t, Config{LatencyRemote: 2 * time.Microsecond})
	buf := make([]Event, 0, 16)
	for k := 0; k < n; k++ {
		a.Send(b.Addr(), TagUnexpected, []byte{byte(k)}, nil)
	}
	for got := 0; got < n; {
		got += len(b.PollInto(buf, 16))
		runtime.Gosched()
	}
	l := b.Lateness()
	if l.Count != n || l.Over10us > l.Count || l.Over50us > l.Over10us || int64(l.SumNanos) < 0 {
		t.Fatalf("%d deliveries counted as %+v", n, l)
	}
	if l.SumNanos/n > uint64(time.Second) {
		t.Fatalf("mean lateness %v on an idle fabric", time.Duration(l.SumNanos/n))
	}
	if got := a.Lateness(); got != (Lateness{}) {
		t.Fatalf("the sender counts %+v", got)
	}
}
