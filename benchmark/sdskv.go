package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// kvWorkload drives one SDSKV provider from one client process with two
// issuer ULTs, each owning half of the preloaded keys.
//
// Each rep runs on a freshly built and preloaded provider.
//
// sdskv_mixed issues a seeded 50/50 mix of single Put and Get calls and
// is the only workload with a caller-visible per-op latency: a write
// gain that costs reads shows here. sdskv_multi drives the same service
// and keys through the client coalescer, alternating PutMulti and
// GetMulti calls of 64 keys, so the batch window, the vectored frame
// and the per-entry fan-in dominate. One op is one key. Every value
// read is checked against the issuer's last acknowledged write.
type kvWorkload struct {
	sp    workloadSpec
	multi bool
	seed  uint64
	k     *kvDeploy
	ls    []*lane
	iss   []*kvIssuer
	// keys is how many keys are preloaded (tests shrink it).
	keys int
	// corrupt, set by tests, alters a read value before it is compared.
	corrupt func([]byte)
	// logs, when set by tests, receives every issuer's op sequence.
	logs []*[]string
}

const (
	kvKeys       = 65536
	kvValueBytes = 256
	kvIssuers    = 2
	kvMultiKeys  = 64
	kvPreloadRPC = 4096 // pairs per put_packed during preload
	kvWarmShare  = 16   // a new deployment is warmed with 1/16 of a rep
)

// kvIssuer is one issuer's private state: its key partition, the last
// acknowledged version of each key, its random stream and its buffers.
type kvIssuer struct {
	keys    [][]byte
	version []uint32
	rng     *prng
	filler  []byte   // seeded tail every value of this issuer carries
	scratch [][]byte // value buffers handed to Put/PutMulti
	expect  []byte
	// log, when non-nil, records the op sequence (tests compare it).
	log *[]string
}

func newKVWorkload(name string, multi bool) *kvWorkload {
	w := &kvWorkload{multi: multi, keys: kvKeys}
	w.sp = workloadSpec{name: name, tail: 99, rpc: true,
		shape: probeShape{keyBytes: 18, valueBytes: kvValueBytes, kvPreload: kvKeys}}
	if multi {
		// The p99 of a 64-key call rides on collector cycles and does not
		// repeat (interquartile spread 35% over ten runs); the p90 does.
		w.sp.tail = 90
		w.sp.why = "same service and keys through the coalescer and vectored frame (PutMulti/GetMulti of 64): batch, mercury BatchBuilder and per-entry fan-in dominate; single-forward changes barely move it"
		w.sp.callOps = kvMultiKeys
		w.sp.repOps = kvIssuers * 640 * kvMultiKeys
	} else {
		w.sp.why = "50/50 single Put/Get with 256 B values over 65536 keys: reads beside writes through the same handlers, the only caller-visible per-op latency, and what an sdskv/ekv merge must hold"
		w.sp.callOps = 1
		w.sp.repOps = kvIssuers * 12288
	}
	for i := 0; i < kvIssuers; i++ {
		w.ls = append(w.ls, newLane(fmt.Sprintf("issuer%d", i), false, 1<<18))
	}
	return w
}

func (w *kvWorkload) spec() workloadSpec { return w.sp }
func (w *kvWorkload) live() *deploy      { return w.k.deploy }
func (w *kvWorkload) lanes() []*lane     { return w.ls }

// kvKey derives key i of a seed: different seeds give different keys.
func kvKey(seed uint64, i int) []byte {
	return []byte(fmt.Sprintf("k/%016x", mix64(seed^mix64(uint64(i)+1))))
}

// value writes the value of (key index, version) into dst.
func (is *kvIssuer) value(dst []byte, idx int, version uint32) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(idx))
	binary.LittleEndian.PutUint32(dst[4:], version)
	copy(dst[8:], is.filler)
}

func (is *kvIssuer) matches(got []byte, idx int, corrupt func([]byte)) bool {
	if corrupt != nil {
		corrupt(got)
	}
	is.value(is.expect, idx, is.version[idx])
	return bytes.Equal(got, is.expect)
}

// note appends one op to the issuer's log. Callers check is.log first,
// so an unlogged run pays no boxing of the arguments.
func (is *kvIssuer) note(op string, key []byte) {
	*is.log = append(*is.log, op+" "+string(key))
}

func (w *kvWorkload) newIssuers(seed uint64) {
	w.iss = w.iss[:0]
	per := w.keys / kvIssuers
	for i := 0; i < kvIssuers; i++ {
		is := &kvIssuer{version: make([]uint32, per), rng: newPRNG(seed, uint64(i)),
			filler: make([]byte, kvValueBytes-8), expect: make([]byte, kvValueBytes)}
		newPRNG(seed, uint64(10+i)).fill(is.filler)
		for j := 0; j < per; j++ {
			is.keys = append(is.keys, kvKey(seed, i*per+j))
		}
		for j := 0; j < kvMultiKeys; j++ {
			is.scratch = append(is.scratch, make([]byte, kvValueBytes))
		}
		if w.logs != nil {
			is.log = w.logs[i]
		}
		w.iss = append(w.iss, is)
	}
}

func (w *kvWorkload) setup(seed uint64, n int) error {
	w.seed = repSeed(seed, n)
	var err error
	var k *kvDeploy
	if w.multi {
		k, err = newSDSKV(multiPolicy())
	} else {
		k, err = newSDSKV(nil)
	}
	if err != nil {
		return err
	}
	w.k = k
	w.newIssuers(w.seed)
	if err := w.preload(); err != nil {
		return err
	}
	// The warm-up ops are checked like a rep's, on lanes of their own.
	warm := make([]*lane, kvIssuers)
	for i := range warm {
		warm[i] = newLane("warm", false, 0)
	}
	if c, err := w.ops(warm, w.sp.repOps/kvWarmShare); err != nil || c.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed: %v", c.failed, c.ops, err)
	}
	if err := k.quiesce(); err != nil {
		return err
	}
	k.resetMeasurements()
	return nil
}

// preload stores version 0 of every key, a few packed RPCs per issuer.
func (w *kvWorkload) preload() error {
	var first error
	err := w.k.issuers(kvIssuers, func(i int, ops kvOps) {
		is := w.iss[i]
		vals := make([][]byte, kvPreloadRPC)
		for j := range vals {
			vals[j] = make([]byte, kvValueBytes)
		}
		for lo := 0; lo < len(is.keys); lo += kvPreloadRPC {
			hi := min(lo+kvPreloadRPC, len(is.keys))
			for j := lo; j < hi; j++ {
				is.value(vals[j-lo], j, 0)
			}
			if err := ops.putPacked(is.keys[lo:hi], vals[:hi-lo]); err != nil && first == nil {
				first = err
			}
		}
	})
	if err != nil {
		return err
	}
	return first
}

func (w *kvWorkload) rep() (repCount, error) { return w.ops(w.ls, w.sp.repOps) }

// ops issues n ops, split evenly between the issuers, each recording on
// its lane.
func (w *kvWorkload) ops(ls []*lane, n int) (repCount, error) {
	failed := make([]int, kvIssuers)
	per := n / kvIssuers
	err := w.k.issuers(kvIssuers, func(i int, ops kvOps) {
		if w.multi {
			failed[i] = w.multiOps(w.iss[i], ls[i], ops, per/kvMultiKeys)
		} else {
			failed[i] = w.mixedOps(w.iss[i], ls[i], ops, per)
		}
	})
	c := repCount{ops: n}
	for _, f := range failed {
		c.failed += f
	}
	return c, err
}

// mixedOps issues n single-key ops, each a Put or a Get by a coin flip.
func (w *kvWorkload) mixedOps(is *kvIssuer, l *lane, ops kvOps, n int) (failed int) {
	val := is.scratch[0]
	for ; n > 0; n-- {
		r := is.rng.next()
		idx := int(r>>1) % len(is.keys)
		if r&1 == 0 {
			if is.log != nil {
				is.note("put", is.keys[idx])
			}
			is.value(val, idx, is.version[idx]+1)
			t := l.begin("sdskv.put")
			err := ops.put(is.keys[idx], val)
			l.end(t, 1)
			if err != nil {
				failed++
				continue
			}
			is.version[idx]++
			continue
		}
		if is.log != nil {
			is.note("get", is.keys[idx])
		}
		t := l.begin("sdskv.get")
		got, found, err := ops.get(is.keys[idx])
		l.end(t, 1)
		if err != nil || !found || !is.matches(got, idx, w.corrupt) {
			failed++
		}
	}
	return failed
}

// multiOps issues calls vectored calls of 64 consecutive keys of the
// partition, alternating PutMulti and GetMulti.
func (w *kvWorkload) multiOps(is *kvIssuer, l *lane, ops kvOps, calls int) (failed int) {
	for c := 0; c < calls; c++ {
		lo := is.rng.intn(len(is.keys) - kvMultiKeys)
		keys := is.keys[lo : lo+kvMultiKeys]
		if c%2 == 0 {
			if is.log != nil {
				is.note("putmulti", keys[0])
			}
			for j := range keys {
				is.value(is.scratch[j], lo+j, is.version[lo+j]+1)
			}
			t := l.begin("sdskv.putmulti")
			errs := ops.putMulti(keys, is.scratch)
			l.end(t, kvMultiKeys)
			for j, err := range errs {
				if err != nil {
					failed++
					continue
				}
				is.version[lo+j]++
			}
			continue
		}
		if is.log != nil {
			is.note("getmulti", keys[0])
		}
		t := l.begin("sdskv.getmulti")
		vals, found, errs := ops.getMulti(keys)
		l.end(t, kvMultiKeys)
		for j := range keys {
			if errs[j] != nil || !found[j] || !is.matches(vals[j], lo+j, w.corrupt) {
				failed++
			}
		}
	}
	return failed
}

// verifyKeys is how many keys per issuer the end-state check reads.
const verifyKeys = 256

// verify reads a seeded sample of keys once more and compares each with
// the last acknowledged write.
func (w *kvWorkload) verify() (repCount, error) {
	failed := make([]int, kvIssuers)
	err := w.k.issuers(kvIssuers, func(i int, ops kvOps) {
		is := w.iss[i]
		r := newPRNG(w.seed, uint64(100+i))
		for n := 0; n < verifyKeys; n++ {
			idx := r.intn(len(is.keys))
			got, found, err := ops.get(is.keys[idx])
			if err != nil || !found || !is.matches(got, idx, w.corrupt) {
				failed[i]++
			}
		}
	})
	c := repCount{ops: kvIssuers * verifyKeys}
	for _, f := range failed {
		c.failed += f
	}
	return c, err
}

func (w *kvWorkload) traceBytes() (int64, uint64, error) { return w.k.traceExport() }

func (w *kvWorkload) teardown() error {
	if w.k == nil {
		return nil
	}
	err := w.k.shutdown()
	w.k = nil
	return err
}
