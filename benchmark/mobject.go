package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// mobjectWorkload is the ior+Mobject study of the paper (§V-A): one
// provider node hosting the sequencer, BAKE and SDSKV, and two colocated
// ior ranks. Each rank writes a set of 16 KiB objects and reads them
// back; every read is compared byte for byte. One op is one object
// written or read. Each op fans into nested RPCs between mobject, bake
// and sdskv on one process (12 for a write, 4 for a read), which makes
// this the only workload with forwards from handler ULTs, depth-3
// callpaths, node-local latency and bulk transfers in both directions.
type mobjectWorkload struct {
	sp    workloadSpec
	m     *mobDeploy
	ls    []*lane
	names [][]string // object names per rank
	warm  [][]string
	data  [][]byte // per rank: the object content, header rewritten per op
	buf   [][]byte
	want  [][]byte
}

const (
	mobRanks       = 2
	mobObjectBytes = 16 << 10
	mobSegments    = 512 // objects per rank per rep
	mobWarmObjects = 16  // per rank, on each new provider node
)

func newMobjectWorkload() *mobjectWorkload {
	w := &mobjectWorkload{}
	w.sp = workloadSpec{
		name: "mobject_ior", tail: 99, rpc: true, callOps: 1,
		repOps: mobRanks * mobSegments * 2,
		why:    "ior over Mobject: each op fans into ~12 nested RPCs between mobject, bake and sdskv on one process; the only workload with handler-issued forwards, depth-3 callpaths and bulk both ways",
		shape:  probeShape{keyBytes: 40, valueBytes: 16, bulkBytes: mobObjectBytes, kvPreload: 4 * mobRanks * mobSegments},
	}
	for r := 0; r < mobRanks; r++ {
		var names, warm []string
		for s := 0; s < mobSegments; s++ {
			names = append(names, fmt.Sprintf("ior.%08d.%08d", r, s))
		}
		for s := 0; s < mobWarmObjects; s++ {
			warm = append(warm, fmt.Sprintf("warm.%08d.%08d", r, s))
		}
		w.names = append(w.names, names)
		w.warm = append(w.warm, warm)
		w.ls = append(w.ls, newLane(fmt.Sprintf("rank%d", r), false, 1<<16))
		w.data = append(w.data, make([]byte, mobObjectBytes))
		w.buf = append(w.buf, make([]byte, mobObjectBytes))
		w.want = append(w.want, make([]byte, mobObjectBytes))
	}
	return w
}

func (w *mobjectWorkload) spec() workloadSpec { return w.sp }
func (w *mobjectWorkload) live() *deploy      { return w.m.deploy }
func (w *mobjectWorkload) lanes() []*lane     { return w.ls }

// stamp writes the identity of one object into the head of its buffer,
// so every object of a rep has its own content.
func stamp(b []byte, rank, seg int) {
	binary.LittleEndian.PutUint32(b[0:], uint32(rank))
	binary.LittleEndian.PutUint32(b[4:], uint32(seg))
}

// setup draws the rep's object content from the seed, builds the
// provider node and warms it with a few objects.
func (w *mobjectWorkload) setup(seed uint64, n int) error {
	for r := range w.data {
		newPRNG(repSeed(seed, n), uint64(r)).fill(w.data[r])
		copy(w.want[r], w.data[r])
	}
	m, err := newMobject(mobRanks)
	if err != nil {
		return err
	}
	w.m = m
	var first error
	if err := m.eachRank(func(r int, ops mobOps) {
		for s, obj := range w.warm[r] {
			stamp(w.data[r], r, s)
			if err := ops.write(obj, w.data[r]); err != nil && first == nil {
				first = err
			}
			if _, err := ops.read(obj, w.buf[r]); err != nil && first == nil {
				first = err
			}
		}
	}); err != nil {
		return err
	}
	if first != nil {
		return first
	}
	if err := m.quiesce(); err != nil {
		return err
	}
	m.resetMeasurements()
	return nil
}

func (w *mobjectWorkload) rep() (repCount, error) {
	failed := make([]int, mobRanks)
	err := w.m.eachRank(func(r int, ops mobOps) {
		l := w.ls[r]
		for s, obj := range w.names[r] {
			stamp(w.data[r], r, s)
			t := l.begin("mobject.write")
			err := ops.write(obj, w.data[r])
			l.end(t, 1)
			if err != nil {
				failed[r]++
			}
		}
		for s, obj := range w.names[r] {
			t := l.begin("mobject.read")
			n, err := ops.read(obj, w.buf[r])
			l.end(t, 1)
			stamp(w.want[r], r, s)
			if err != nil || n != mobObjectBytes || !bytes.Equal(w.buf[r], w.want[r]) {
				failed[r]++
			}
		}
	})
	c := repCount{ops: w.sp.repOps}
	for _, f := range failed {
		c.failed += f
	}
	return c, err
}

// verify has nothing left to check: every read of the rep was compared
// when it returned.
func (w *mobjectWorkload) verify() (repCount, error) { return repCount{}, nil }

func (w *mobjectWorkload) traceBytes() (int64, uint64, error) { return w.m.traceExport() }

func (w *mobjectWorkload) teardown() error {
	if w.m == nil {
		return nil
	}
	err := w.m.shutdown()
	w.m = nil
	return err
}
