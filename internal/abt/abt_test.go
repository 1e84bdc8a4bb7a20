package abt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestRT builds a runtime with one pool and n streams and returns both
// plus a cleanup-registered shutdown.
func newTestRT(t *testing.T, n int) (*Runtime, *Pool) {
	t.Helper()
	rt := NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", n, p)
	t.Cleanup(rt.Shutdown)
	return rt, p
}

func TestULTRunsAndJoins(t *testing.T) {
	_, p := newTestRT(t, 1)
	var ran atomic.Bool
	u := p.Create("w", func(self *ULT) { ran.Store(true) })
	if err := u.Join(nil); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if !ran.Load() {
		t.Fatal("ULT did not run")
	}
	if got := u.State(); got != StateTerminated {
		t.Fatalf("state = %v, want terminated", got)
	}
}

func TestManyULTsAllComplete(t *testing.T) {
	_, p := newTestRT(t, 4)
	const n = 500
	var count atomic.Int64
	ults := make([]*ULT, n)
	for i := range ults {
		ults[i] = p.Create("w", func(self *ULT) { count.Add(1) })
	}
	for _, u := range ults {
		if err := u.Join(nil); err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	if count.Load() != n {
		t.Fatalf("count = %d, want %d", count.Load(), n)
	}
	if p.Executed() != n {
		t.Fatalf("Executed = %d, want %d", p.Executed(), n)
	}
}

func TestSingleStreamRunsOneAtATime(t *testing.T) {
	_, p := newTestRT(t, 1)
	var inside, maxInside int64
	var mu sync.Mutex
	done := make([]*ULT, 0, 20)
	for i := 0; i < 20; i++ {
		done = append(done, p.Create("w", func(self *ULT) {
			// Within one quantum (no yield), a single stream admits
			// exactly one ULT.
			mu.Lock()
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			mu.Unlock()
			hold(100 * time.Microsecond)
			mu.Lock()
			inside--
			mu.Unlock()
			self.Yield()
		}))
	}
	for _, u := range done {
		u.Join(nil)
	}
	if maxInside != 1 {
		t.Fatalf("max concurrent ULTs on one stream = %d, want 1", maxInside)
	}
}

func TestYieldInterleaves(t *testing.T) {
	_, p := newTestRT(t, 1)
	var order []int
	var mu sync.Mutex
	record := func(v int) {
		mu.Lock()
		order = append(order, v)
		mu.Unlock()
	}
	a := p.Create("a", func(self *ULT) {
		record(1)
		self.Yield()
		record(3)
	})
	b := p.Create("b", func(self *ULT) {
		record(2)
		self.Yield()
		record(4)
	})
	a.Join(nil)
	b.Join(nil)
	want := []int{1, 2, 3, 4}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventualCooperativeWait(t *testing.T) {
	_, p := newTestRT(t, 1)
	ev := NewEventual()
	var got any
	waiter := p.Create("waiter", func(self *ULT) { got = ev.Wait(self) })
	setter := p.Create("setter", func(self *ULT) { ev.Set(42) })
	setter.Join(nil)
	waiter.Join(nil)
	if got != 42 {
		t.Fatalf("Wait = %v, want 42", got)
	}
}

func TestEventualExternalWait(t *testing.T) {
	_, p := newTestRT(t, 1)
	ev := NewEventual()
	p.Create("setter", func(self *ULT) {
		self.Sleep(time.Millisecond)
		ev.Set("hello")
	})
	if got := ev.Wait(nil); got != "hello" {
		t.Fatalf("Wait = %v", got)
	}
	if !ev.IsSet() {
		t.Fatal("IsSet = false after Set")
	}
}

func TestEventualSetTwicePanics(t *testing.T) {
	ev := NewEventual()
	ev.Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Set did not panic")
		}
	}()
	ev.Set(2)
}

func TestEventualWaitAfterSetReturnsImmediately(t *testing.T) {
	ev := NewEventual()
	ev.Set(7)
	if got := ev.Wait(nil); got != 7 {
		t.Fatalf("Wait = %v, want 7", got)
	}
}

func TestBlockedCountTracksEventualWaiters(t *testing.T) {
	_, p := newTestRT(t, 2)
	ev := NewEventual()
	const n = 8
	ults := make([]*ULT, n)
	for i := range ults {
		ults[i] = p.Create("w", func(self *ULT) { ev.Wait(self) })
	}
	// Wait for all to park.
	deadline := time.Now().Add(2 * time.Second)
	for p.Blocked() != n {
		if time.Now().After(deadline) {
			t.Fatalf("Blocked = %d, want %d", p.Blocked(), n)
		}
		time.Sleep(time.Millisecond)
	}
	ev.Set(nil)
	for _, u := range ults {
		u.Join(nil)
	}
	if p.Blocked() != 0 {
		t.Fatalf("Blocked after wake = %d, want 0", p.Blocked())
	}
}

func TestMutexSerializesCriticalSection(t *testing.T) {
	_, p := newTestRT(t, 4)
	m := NewMutex()
	var inside, maxInside, total int64
	var imu sync.Mutex
	const n = 40
	ults := make([]*ULT, n)
	for i := range ults {
		ults[i] = p.Create("w", func(self *ULT) {
			m.Lock(self)
			imu.Lock()
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			imu.Unlock()
			self.Yield() // widen the window
			imu.Lock()
			inside--
			total++
			imu.Unlock()
			m.Unlock()
		})
	}
	for _, u := range ults {
		u.Join(nil)
	}
	if maxInside != 1 {
		t.Fatalf("max concurrency in critical section = %d, want 1", maxInside)
	}
	if total != n {
		t.Fatalf("total = %d, want %d", total, n)
	}
}

func TestMutexTryLock(t *testing.T) {
	m := NewMutex()
	if !m.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	m.Unlock()
	if !m.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	m.Unlock()
}

func TestMutexUnlockUnlockedPanics(t *testing.T) {
	m := NewMutex()
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of unlocked mutex did not panic")
		}
	}()
	m.Unlock()
}

func TestULTDataSlot(t *testing.T) {
	_, p := newTestRT(t, 1)
	type record struct{ bc string }
	var got *record
	var empty any
	u := p.Create("w", func(self *ULT) {
		empty = self.Data()
		self.SetData(&record{bc: "breadcrumb"})
		got, _ = self.Data().(*record)
	})
	u.Join(nil)
	if empty != nil {
		t.Fatalf("fresh ULT Data = %v, want nil", empty)
	}
	if got == nil || got.bc != "breadcrumb" {
		t.Fatalf("Data = %v", got)
	}
}

// TestDetachedDataPresetAndCleared checks both ends of a detached ULT's
// life: CreateDetachedWith hands the body its record, and the recycled
// struct does not carry it into the next life.
func TestDetachedDataPresetAndCleared(t *testing.T) {
	_, p := newTestRT(t, 1)
	seen := make(chan any, 1)
	body := func(self *ULT) { seen <- self.Data() }
	rec := new(int)
	p.CreateDetachedWith("with", body, rec)
	if got := <-seen; got != any(rec) {
		t.Fatalf("preset Data = %v, want %p", got, rec)
	}
	for p.FreeListLen() == 0 {
		runtime.Gosched()
	}
	p.CreateDetached("without", body)
	if got := <-seen; got != nil {
		t.Fatalf("recycled ULT kept Data = %v", got)
	}
}

// TestIdleWorkersOutliveRuntime checks that the workers a pool holds at
// Shutdown are taken up by a later runtime's pool, which runs its
// bodies on them and recycles them into its own free list.
func TestIdleWorkersOutliveRuntime(t *testing.T) {
	ran := make(chan *Pool, 1)
	body := func(self *ULT) { ran <- self.pool }
	rt := NewRuntime()
	p := rt.AddPool("first")
	rt.AddXStreams("es", 1, p)
	p.CreateDetached("w", body)
	<-ran
	for p.FreeListLen() == 0 {
		runtime.Gosched()
	}
	rt.Shutdown()
	idle := IdleWorkers()
	if idle == 0 {
		t.Fatal("Shutdown parked no idle worker")
	}

	_, p2 := newTestRT(t, 1)
	p2.CreateDetached("w", body)
	if got := <-ran; got != p2 {
		t.Fatalf("adopted worker ran in pool %q, want %q", got.Name(), p2.Name())
	}
	for p2.FreeListLen() == 0 {
		runtime.Gosched()
	}
	if n := IdleWorkers(); n != idle-1 {
		t.Fatalf("idle workers = %d after one adoption, want %d", n, idle-1)
	}
}

func TestPanicIsCapturedAsError(t *testing.T) {
	_, p := newTestRT(t, 1)
	u := p.Create("boom", func(self *ULT) { panic("kaboom") })
	err := u.Join(nil)
	if err == nil {
		t.Fatal("Join returned nil for panicked ULT")
	}
}

func TestJoinFromULT(t *testing.T) {
	_, p := newTestRT(t, 2)
	inner := p.Create("inner", func(self *ULT) { self.Sleep(2 * time.Millisecond) })
	var joined atomic.Bool
	outer := p.Create("outer", func(self *ULT) {
		inner.Join(self)
		joined.Store(true)
	})
	outer.Join(nil)
	if !joined.Load() {
		t.Fatal("outer did not observe inner completion")
	}
}

func TestJoinFromULTAlreadyDone(t *testing.T) {
	_, p := newTestRT(t, 1)
	inner := p.Create("inner", func(self *ULT) {})
	inner.Join(nil)
	outer := p.Create("outer", func(self *ULT) {
		if err := inner.Join(self); err != nil {
			t.Errorf("Join: %v", err)
		}
	})
	outer.Join(nil)
}

func TestSleepReleasesStream(t *testing.T) {
	_, p := newTestRT(t, 1)
	var other atomic.Bool
	sleeper := p.Create("sleeper", func(self *ULT) {
		self.Sleep(20 * time.Millisecond)
		if !other.Load() {
			t.Error("sleep did not release the stream")
		}
	})
	quick := p.Create("quick", func(self *ULT) { other.Store(true) })
	quick.Join(nil)
	sleeper.Join(nil)
}

func TestHandlerTimeGrowsWhenStreamsScarce(t *testing.T) {
	// With 1 stream and ULTs that each hold the stream ~2ms, later ULTs
	// wait in the pool — the paper's "target handler time" saturation.
	_, p := newTestRT(t, 1)
	const n = 6
	ults := make([]*ULT, n)
	for i := range ults {
		ults[i] = p.Create("w", func(self *ULT) {
			hold(2 * time.Millisecond)
		})
	}
	for _, u := range ults {
		u.Join(nil)
	}
	last := ults[n-1]
	wait := last.FirstRunTime().Sub(last.SpawnTime())
	if wait < 5*time.Millisecond {
		t.Fatalf("last ULT handler wait = %v, want >= 5ms under saturation", wait)
	}
}

func TestHandlerTimeShrinksWhenStreamsPlenty(t *testing.T) {
	// Compare total handler wait (spawn -> first run) under 1 stream vs
	// many streams; the scarce configuration must wait far longer. This
	// is the paper's Figure 9 effect at the runtime level.
	run := func(streams int) time.Duration {
		rt := NewRuntime()
		p := rt.AddPool("main")
		rt.AddXStreams("es", streams, p)
		defer rt.Shutdown()
		const n = 6
		ults := make([]*ULT, n)
		for i := range ults {
			ults[i] = p.Create("w", func(self *ULT) {
				hold(2 * time.Millisecond)
			})
		}
		var total time.Duration
		for _, u := range ults {
			u.Join(nil)
			total += u.FirstRunTime().Sub(u.SpawnTime())
		}
		return total
	}
	scarce := run(1)
	ample := run(8)
	if ample*2 >= scarce {
		t.Fatalf("handler wait: scarce=%v ample=%v, want ample << scarce", scarce, ample)
	}
}

func TestXStreamPoolPriority(t *testing.T) {
	rt := NewRuntime()
	hi := rt.AddPool("hi")
	lo := rt.AddPool("lo")
	defer rt.Shutdown()

	// Fill both pools before starting the stream, then verify the high
	// priority pool drains first.
	var order []string
	var mu sync.Mutex
	var ults []*ULT
	for i := 0; i < 3; i++ {
		ults = append(ults, lo.Create("lo", func(self *ULT) {
			mu.Lock()
			order = append(order, "lo")
			mu.Unlock()
		}))
	}
	for i := 0; i < 3; i++ {
		ults = append(ults, hi.Create("hi", func(self *ULT) {
			mu.Lock()
			order = append(order, "hi")
			mu.Unlock()
		}))
	}
	rt.AddXStreams("es", 1, hi, lo)
	for _, u := range ults {
		u.Join(nil)
	}
	for i := 0; i < 3; i++ {
		if order[i] != "hi" {
			t.Fatalf("order = %v, want hi first", order)
		}
	}
}

func TestRuntimeDuplicatePoolPanics(t *testing.T) {
	rt := NewRuntime()
	rt.AddPool("p")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate pool did not panic")
		}
	}()
	rt.AddPool("p")
}

func TestRuntimeShutdownIdempotent(t *testing.T) {
	rt := NewRuntime()
	p := rt.AddPool("p")
	rt.AddXStreams("es", 2, p)
	rt.Shutdown()
	rt.Shutdown()
}

func TestPoolSnapshot(t *testing.T) {
	_, p := newTestRT(t, 2)
	ev := NewEventual()
	u1 := p.Create("blocked", func(self *ULT) { ev.Wait(self) })
	deadline := time.Now().Add(2 * time.Second)
	for p.Blocked() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("ULT never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	s := p.Snapshot()
	if s.Blocked != 1 {
		t.Fatalf("Snapshot.Blocked = %d, want 1", s.Blocked)
	}
	if s.Created < 1 {
		t.Fatalf("Snapshot.Created = %d", s.Created)
	}
	ev.Set(nil)
	u1.Join(nil)
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StateReady:      "ready",
		StateRunning:    "running",
		StateBlocked:    "blocked",
		StateTerminated: "terminated",
		State(99):       "state(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// hold models request execution work: it occupies the hosting stream
// for d (the ULT keeps its run token) without burning CPU, so N streams
// provide N-way work capacity even on a single-core test machine.
func hold(d time.Duration) {
	time.Sleep(d)
}

// TestPoolRunnableMirrorsQueue: the lock-free Runnable mirror must track
// len(q) through pushes and pops — admission control reads it on every
// incoming RPC and a stale depth would admit into a saturated pool.
func TestPoolRunnableMirrorsQueue(t *testing.T) {
	p := NewPool("mirror")
	if got := p.Runnable(); got != 0 {
		t.Fatalf("empty pool Runnable = %d", got)
	}
	gate := NewEventual()
	const n = 5
	for i := 0; i < n; i++ {
		p.Create("parked", func(self *ULT) { gate.Wait(self) })
	}
	// No XStream is attached: all n ULTs sit queued.
	if got := p.Runnable(); got != n {
		t.Fatalf("Runnable = %d with %d queued ULTs", got, n)
	}
	if got := p.SizeHighWatermark(); got != n {
		t.Fatalf("SizeHighWatermark = %d, want %d", got, n)
	}

	// Drain them with a stream; the mirror must return to zero.
	xs := NewXStream("drainer", p)
	gate.Set(nil)
	deadline := time.Now().Add(2 * time.Second)
	for p.Executed() != n {
		if time.Now().After(deadline) {
			t.Fatalf("executed %d of %d", p.Executed(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := p.Runnable(); got != 0 {
		t.Fatalf("Runnable = %d after drain", got)
	}
	xs.Stop()
}
