package main

import (
	"fmt"
	"sync/atomic"
)

// hepnosWorkload is the data-loader step of the paper's HEPnOS study
// (§V-C) in two Table IV configurations. hepnos_c7 ships one event per
// put_packed RPC, so the per-RPC path does nearly all the work;
// hepnos_c4 ships up to 1024 events per RPC, so payload packing, the bulk
// transfer and the backend insert dominate. One op is one stored event.
//
// A rep is one dataloader.Run call per loader process into an empty
// store, as a loader does it: the loader names an event after its own
// address and the event's index, so only a single call stores distinct
// keys, and the store grows while it runs.
type hepnosWorkload struct {
	sp    workloadSpec
	shape hepnosShape
	seed  uint64 // of the rep under way
	h     *hepnosDeploy
	ls    []*lane
	// corrupt, set by tests, alters a read-back value before it is
	// compared.
	corrupt func([]byte)
}

const (
	// readBacks is how many events per loader the end-state check loads
	// back and compares byte for byte.
	readBacks = 64
	// hepnosWarmEvents is how many events per loader warm a new
	// deployment up. The rep overwrites them.
	hepnosWarmEvents = 256
)

func newHEPnOSWorkload(name string) *hepnosWorkload {
	w := &hepnosWorkload{}
	switch name {
	case "hepnos_c7":
		w.shape = hepnosShape{batchSize: 1, maxInflight: 64, ofiMaxEvents: 64, dedicatedProgress: true}
		w.sp = workloadSpec{
			name:  name,
			why:   "Table IV C7: one put_packed RPC and one bulk pull per event, so the per-RPC path (margo, mercury, na, abt, core) does nearly all the work and saturates the cores",
			shape: probeShape{keyBytes: 56, valueBytes: hepnosEventSize, bulkBytes: 600, kvPreload: 256},
		}
		w.withEvents(4096)
	case "hepnos_c4":
		// 65536 events per loader over 32 databases fill two 1024-event
		// batches per database.
		w.shape = hepnosShape{batchSize: 1024, maxInflight: 6, ofiMaxEvents: 16}
		w.sp = workloadSpec{
			name:  name,
			why:   "Table IV C4: batches of 1024 events amortise the hop ~800x, so payload codec, bulk transfer, sdskv unpack and kv insert dominate; an RPC-path change predicts no change here",
			shape: probeShape{keyBytes: 56, valueBytes: hepnosEventSize, bulkBytes: 1024 * 600, kvPreload: 4096},
		}
		w.withEvents(65536)
	}
	w.sp.rpc = true
	// A call is a loader's whole Run, so a run has two samples per rep:
	// too few for a p90 with ten samples beyond it.
	w.sp.tail = 75
	for i := 0; i < hepnosLoaders; i++ {
		w.ls = append(w.ls, newLane(fmt.Sprintf("loader%d", i), false, 256))
	}
	return w
}

// withEvents sets how many events each loader stores per rep.
func (w *hepnosWorkload) withEvents(n int) *hepnosWorkload {
	w.shape.events = n
	w.sp.callOps = n
	w.sp.repOps = hepnosLoaders * n
	return w
}

func (w *hepnosWorkload) spec() workloadSpec { return w.sp }
func (w *hepnosWorkload) live() *deploy      { return w.h.deploy }
func (w *hepnosWorkload) lanes() []*lane     { return w.ls }

func (w *hepnosWorkload) loaderSeed(loader int) uint64 { return w.seed + uint64(loader) }

func (w *hepnosWorkload) setup(seed uint64, n int) error {
	w.seed = repSeed(seed, n)
	h, err := newHEPnOS(w.shape)
	if err != nil {
		return err
	}
	w.h = h
	if err := onAll(hepnosLoaders, func(i int) error {
		_, err := h.load(i, hepnosWarmEvents, ^w.loaderSeed(i))
		return err
	}); err != nil {
		return err
	}
	if err := h.quiesce(); err != nil {
		return err
	}
	h.resetMeasurements()
	return nil
}

func (w *hepnosWorkload) rep() (repCount, error) {
	var short atomic.Int64
	err := onAll(hepnosLoaders, func(i int) error {
		l := w.ls[i]
		t := l.begin("hepnos.load")
		stored, err := w.h.load(i, w.shape.events, w.loaderSeed(i))
		l.end(t, w.shape.events)
		if err != nil {
			return err
		}
		if d := int64(w.shape.events) - int64(stored); d != 0 {
			if d < 0 {
				d = -d
			}
			short.Add(d)
		}
		return nil
	})
	return repCount{ops: w.sp.repOps, failed: int(short.Load())}, err
}

// verify checks that the servers hold exactly the events the rep
// issued, and that a seeded sample of them reads back byte-equal to
// what the rep wrote.
func (w *hepnosWorkload) verify() (repCount, error) {
	var c repCount
	c.ops++
	if got, want := w.h.storedEvents(), w.sp.repOps; got != want {
		c.failed++
	}
	for i := 0; i < hepnosLoaders; i++ {
		r := newPRNG(w.seed, uint64(100+i))
		events := make([]int, readBacks)
		for j := range events {
			events[j] = r.intn(w.shape.events)
		}
		bad, err := w.h.readBack(i, w.loaderSeed(i), events, w.corrupt)
		if err != nil {
			return c, err
		}
		c.ops += len(events)
		c.failed += bad
	}
	return c, nil
}

func (w *hepnosWorkload) traceBytes() (int64, uint64, error) { return w.h.traceExport() }

func (w *hepnosWorkload) teardown() error {
	if w.h == nil {
		return nil
	}
	err := w.h.shutdown()
	w.h = nil
	return err
}
