package abt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStealParkStress exercises the three contended edges of the
// work-stealing scheduler at once: concurrent external pushes (inject
// queue), owner ring pops racing thief pops, and park/unpark cycles
// through Eventual. Run under -race (make check does) this is the
// primary memory-model check for the ring deque and evsem.
func TestStealParkStress(t *testing.T) {
	rt := NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", 4, p)
	defer rt.Shutdown()

	const spawners = 4
	const perSpawner = 150
	const total = spawners * perSpawner
	var ran atomic.Int64
	uch := make(chan *ULT, total)

	var wg sync.WaitGroup
	for s := 0; s < spawners; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSpawner; i++ {
				ev := NewEventual()
				uch <- p.Create("w", func(self *ULT) {
					self.Yield()      // owner-ring requeue
					_ = ev.Wait(self) // park
					self.Yield()      // requeue after wake
					ran.Add(1)
				})
				go ev.Set(nil) // unpark from an arbitrary goroutine
				if i%8 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	close(uch)
	for u := range uch {
		if err := joinTimeout(u, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := ran.Load(); got != total {
		t.Fatalf("ran = %d, want %d", got, total)
	}
}

// TestNoLostWakeup is the property test for the Dekker handshake
// between parking streams and pushers: repeatedly let every stream go
// idle (parked), then push a batch and require all of it to run. A
// lost wakeup leaves a ULT queued with every stream asleep, which the
// join timeout converts into a failure instead of a hang.
func TestNoLostWakeup(t *testing.T) {
	rt := NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", 4, p)
	defer rt.Shutdown()

	const rounds = 40
	const batch = 16
	for r := 0; r < rounds; r++ {
		// Give the streams time to drain and park; correctness must not
		// depend on them actually being parked, so no synchronization.
		time.Sleep(300 * time.Microsecond)
		ults := make([]*ULT, batch)
		for i := range ults {
			ults[i] = p.Create("w", func(self *ULT) { self.Yield() })
		}
		for i, u := range ults {
			if err := joinTimeout(u, 10*time.Second); err != nil {
				t.Fatalf("round %d ult %d: %v (lost wakeup?)", r, i, err)
			}
		}
	}
	if parks := rt.SchedStats().Parks; parks == 0 {
		t.Fatalf("streams never parked across %d idle rounds", rounds)
	}
}

// TestStealObserved forces the steal path: a single producer stream
// fills its own local ring via yield requeues while sibling streams
// sit idle; the siblings can only obtain work by stealing.
func TestStealObserved(t *testing.T) {
	rt := NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", 4, p)
	defer rt.Shutdown()

	const n = 64
	ults := make([]*ULT, n)
	for i := range ults {
		ults[i] = p.Create("w", func(self *ULT) {
			for j := 0; j < 50; j++ {
				self.Yield()
			}
		})
	}
	for _, u := range ults {
		if err := joinTimeout(u, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// With 64 yield-hot ULTs requeued into owner rings and 4 streams,
	// at least one successful steal is expected; its absence means the
	// steal path is dead code.
	if st := rt.SchedStats(); st.Steals == 0 {
		t.Fatalf("no steals recorded: %+v", st)
	}
}

// TestQuantumSwitchAllocFree pins the steady-state cost of the
// scheduler hot path: once the ULT free list and worker goroutines are
// warm, a detached spawn plus a burst of yields plus recycle performs
// zero heap allocations.
func TestQuantumSwitchAllocFree(t *testing.T) {
	rt := NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", 1, p)
	defer rt.Shutdown()

	done := make(chan struct{})
	body := func(self *ULT) {
		for i := 0; i < 64; i++ {
			self.Yield()
		}
		done <- struct{}{}
	}
	spawn := func() {
		p.CreateDetached("w", body)
		<-done
	}
	spawn() // warm free list + worker goroutine
	if n := testing.AllocsPerRun(20, spawn); n != 0 {
		t.Fatalf("quantum switch allocates %.1f objects per spawn+64 yields, want 0", n)
	}
}

// TestULTReuseAllocFree pins free-list recycling for detached ULTs:
// sequential spawn/run/recycle cycles reuse one ULT struct and one
// worker goroutine, allocating nothing.
func TestULTReuseAllocFree(t *testing.T) {
	rt := NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", 1, p)
	defer rt.Shutdown()

	done := make(chan struct{})
	body := func(self *ULT) { done <- struct{}{} }
	spawn := func() {
		p.CreateDetached("w", body)
		<-done
	}
	spawn()
	if n := testing.AllocsPerRun(50, spawn); n != 0 {
		t.Fatalf("detached spawn cycle allocates %.1f objects, want 0", n)
	}
	if p.FreeListLen() == 0 {
		t.Fatal("free list empty after recycling spawns")
	}
}

// TestEventualReuseAllocFree pins the per-request wait of a pooled call
// record: park one ULT on an embedded eventual, set it from another,
// Reset, repeat — no waiter slice, no boxed value, no new eventual.
func TestEventualReuseAllocFree(t *testing.T) {
	rt := NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", 1, p)
	defer rt.Shutdown()

	var rec struct {
		ev  Eventual
		val int
	}
	done := make(chan int)
	waiter := func(self *ULT) {
		rec.ev.Wait(self)
		done <- rec.val
	}
	setter := func(self *ULT) {
		self.Yield() // let the waiter park first
		rec.val++
		rec.ev.Set(nil)
	}
	cycle := func() {
		rec.ev.Reset()
		p.CreateDetached("w", waiter)
		p.CreateDetached("s", setter)
		<-done
	}
	cycle()
	cycle()
	want := rec.val
	if n := testing.AllocsPerRun(100, func() { want++; cycle() }); n != 0 {
		t.Fatalf("eventual reset-and-reuse allocates %.1f objects per cycle, want 0", n)
	}
	if rec.val != want {
		t.Fatalf("cycles completed = %d, want %d", rec.val, want)
	}
}

// TestULTDataAllocFree pins the data slot: storing and loading a
// pointer to a per-request record costs no allocation (the map + boxed
// values it replaced cost one per key per request).
func TestULTDataAllocFree(t *testing.T) {
	rt := NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", 1, p)
	defer rt.Shutdown()

	type record struct{ reqID uint64 }
	rec := &record{reqID: 7}
	var n float64
	var got *record
	u := p.Create("w", func(self *ULT) {
		n = testing.AllocsPerRun(1000, func() {
			self.SetData(rec)
			got = self.Data().(*record)
		})
	})
	if err := joinTimeout(u, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if n != 0 || got != rec {
		t.Fatalf("SetData/Data: %.1f allocs per call (want 0), got %p want %p", n, got, rec)
	}
}

// joinTimeout joins u, failing instead of hanging when the scheduler
// loses it.
func joinTimeout(u *ULT, d time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- u.Join(nil) }()
	select {
	case err := <-errc:
		return err
	case <-time.After(d):
		return fmt.Errorf("join of %s timed out after %v", u.name, d)
	}
}
