package pvar

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

type fakeHandle struct{ serTime uint64 }

func newTestRegistry() (*Registry, *Counter, *Level) {
	r := NewRegistry()
	var rpcs Counter
	var cqLen Level
	r.RegisterGlobal("num_rpcs_invoked", "Number of RPCs invoked by instance",
		ClassCounter, rpcs.Load)
	r.RegisterGlobal("completion_queue_size", "Number of events in completion queue",
		ClassSize, func() uint64 { return uint64(cqLen.Load()) })
	r.RegisterHandle("input_serialization_time", "Time to serialize input on origin",
		ClassTimer, func(obj any) (uint64, bool) {
			h, ok := obj.(*fakeHandle)
			if !ok {
				return 0, false
			}
			return h.serTime, true
		})
	return r, &rpcs, &cqLen
}

func TestQueryListsAllVariables(t *testing.T) {
	r, _, _ := newTestRegistry()
	s := r.InitSession()
	defer s.Finalize()
	infos, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("Query = %d vars, want 3", len(infos))
	}
	if infos[0].Name != "num_rpcs_invoked" || infos[0].Class != ClassCounter ||
		infos[0].Binding != BindNoObject {
		t.Fatalf("infos[0] = %+v", infos[0])
	}
	if infos[2].Binding != BindHandle {
		t.Fatalf("infos[2] = %+v", infos[2])
	}
}

func TestReadGlobal(t *testing.T) {
	r, rpcs, _ := newTestRegistry()
	s := r.InitSession()
	defer s.Finalize()
	h, err := s.AllocHandleByName("num_rpcs_invoked")
	if err != nil {
		t.Fatal(err)
	}
	rpcs.Add(5)
	v, err := s.Read(h, nil)
	if err != nil || v != 5 {
		t.Fatalf("Read = %d, %v", v, err)
	}
	rpcs.Inc()
	if v, _ := s.Read(h, nil); v != 6 {
		t.Fatalf("Read = %d, want 6", v)
	}
}

func TestReadHandleBound(t *testing.T) {
	r, _, _ := newTestRegistry()
	s := r.InitSession()
	defer s.Finalize()
	h, _ := s.AllocHandleByName("input_serialization_time")
	obj := &fakeHandle{serTime: 1234}
	v, err := s.Read(h, obj)
	if err != nil || v != 1234 {
		t.Fatalf("Read = %d, %v", v, err)
	}
}

func TestReadErrors(t *testing.T) {
	r, _, _ := newTestRegistry()
	s := r.InitSession()
	global, _ := s.AllocHandleByName("num_rpcs_invoked")
	bound, _ := s.AllocHandleByName("input_serialization_time")

	if _, err := s.Read(global, &fakeHandle{}); !errors.Is(err, ErrNoObjectBound) {
		t.Fatalf("global with obj: %v", err)
	}
	if _, err := s.Read(bound, nil); !errors.Is(err, ErrNeedBoundObj) {
		t.Fatalf("bound without obj: %v", err)
	}
	if _, err := s.Read(bound, "not a handle"); !errors.Is(err, ErrWrongBoundObj) {
		t.Fatalf("bound with wrong obj: %v", err)
	}

	s2 := r.InitSession()
	if _, err := s2.Read(global, nil); !errors.Is(err, ErrHandleMismatch) {
		t.Fatalf("cross-session read: %v", err)
	}
	s2.Finalize()

	s.FreeHandle(global)
	if _, err := s.Read(global, nil); !errors.Is(err, ErrHandleFreed) {
		t.Fatalf("freed read: %v", err)
	}
	s.Finalize()
	if _, err := s.Read(bound, &fakeHandle{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("closed-session read: %v", err)
	}
}

func TestLookupUnknown(t *testing.T) {
	r, _, _ := newTestRegistry()
	s := r.InitSession()
	defer s.Finalize()
	if _, err := s.Lookup("nope"); !errors.Is(err, ErrUnknownPVar) {
		t.Fatalf("Lookup: %v", err)
	}
	if _, err := s.AllocHandle(99); !errors.Is(err, ErrUnknownPVar) {
		t.Fatalf("AllocHandle: %v", err)
	}
	if _, err := s.AllocHandle(-1); !errors.Is(err, ErrUnknownPVar) {
		t.Fatalf("AllocHandle(-1): %v", err)
	}
}

func TestFinalizeReportsLeaks(t *testing.T) {
	r, _, _ := newTestRegistry()
	s := r.InitSession()
	s.AllocHandle(0)
	s.AllocHandle(1)
	h, _ := s.AllocHandle(2)
	s.FreeHandle(h)
	if leaked := s.Finalize(); leaked != 2 {
		t.Fatalf("Finalize leaked = %d, want 2", leaked)
	}
	if again := s.Finalize(); again != 0 {
		t.Fatalf("second Finalize = %d, want 0", again)
	}
}

func TestSessionCounting(t *testing.T) {
	r, _, _ := newTestRegistry()
	if r.ActiveSessions() != 0 {
		t.Fatal("initial sessions != 0")
	}
	s1, s2 := r.InitSession(), r.InitSession()
	if r.ActiveSessions() != 2 {
		t.Fatalf("ActiveSessions = %d", r.ActiveSessions())
	}
	s1.Finalize()
	s2.Finalize()
	if r.ActiveSessions() != 0 {
		t.Fatalf("ActiveSessions after finalize = %d", r.ActiveSessions())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.RegisterGlobal("x", "", ClassCounter, func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.RegisterGlobal("x", "", ClassCounter, func() uint64 { return 0 })
}

func TestClassAndBindingStrings(t *testing.T) {
	want := map[Class]string{
		ClassState: "STATE", ClassCounter: "COUNTER", ClassTimer: "TIMER",
		ClassLevel: "LEVEL", ClassSize: "SIZE",
		ClassHighWatermark: "HIGHWATERMARK", ClassLowWatermark: "LOWWATERMARK",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if BindNoObject.String() != "NO_OBJECT" || BindHandle.String() != "HANDLE" {
		t.Error("binding strings wrong")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("Counter = %d, want 8000", c.Load())
	}
}

func TestLevelTracksHighWatermark(t *testing.T) {
	var l Level
	l.Add(3)
	l.Add(4)
	l.Add(-5)
	if l.Load() != 2 {
		t.Fatalf("Load = %d, want 2", l.Load())
	}
	if l.HighWatermark() != 7 {
		t.Fatalf("HWM = %d, want 7", l.HighWatermark())
	}
	l.Set(100)
	if l.HighWatermark() != 100 {
		t.Fatalf("HWM after Set = %d", l.HighWatermark())
	}
}

func TestLevelNeverExceedsHWMProperty(t *testing.T) {
	prop := func(deltas []int8) bool {
		var l Level
		var cur, hwm int64
		for _, d := range deltas {
			cur = l.Add(int64(d))
			if cur > hwm {
				hwm = cur
			}
		}
		return l.Load() == cur && l.HighWatermark() == hwm
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimer(t *testing.T) {
	var tm Timer
	if tm.Nanos() != 0 {
		t.Fatal("zero Timer reads nonzero")
	}
	tm.Start()
	time.Sleep(2 * time.Millisecond)
	tm.Stop()
	if d := time.Duration(tm.Nanos()); d < time.Millisecond {
		t.Fatalf("timed %v, want >= 1ms", d)
	}
	before := tm.Nanos()
	tm.Stop() // idempotent without Start
	if tm.Nanos() != before {
		t.Fatalf("a second Stop moved the timer from %d to %d ns", before, tm.Nanos())
	}
	tm.SetDuration(42 * time.Nanosecond)
	if tm.Nanos() != 42 {
		t.Fatalf("SetDuration: %d", tm.Nanos())
	}
}
