package sdskv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"symbiosys/internal/abt"
	"symbiosys/internal/batch"
	"symbiosys/internal/core"
	"symbiosys/internal/kv"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
)

// The tests in this file follow one packed put's bytes through the
// buffers that are recycled around them — the client's registered
// arena, the target's per-request scratch — and check that what the
// backend stored is what was sent.

// fastCfg makes the modeled backend cost negligible, so a test's run
// time is the RPC path's.
var fastCfg = Config{PutCostPerKey: time.Nanosecond, GetCostPerKey: time.Nanosecond, ListCostPerItem: time.Nanosecond}

// stamped returns an n-byte value every byte of which depends on
// (key, version): a value torn between two sends cannot pass for either.
func stamped(key uint64, version uint32, n int) []byte {
	v := make([]byte, n)
	for k := range v {
		v[k] = byte(key*31 + uint64(version)*7 + uint64(k))
	}
	return v
}

func keyBytes(key uint64) []byte { return binary.BigEndian.AppendUint64(nil, key) }

// issuers runs fn on n concurrent client ULTs and joins them.
func (e *env) issuers(t *testing.T, n int, fn func(self *abt.ULT, issuer int)) {
	t.Helper()
	ults := make([]*abt.ULT, n)
	for k := range ults {
		k := k
		ults[k] = e.cli.Run("issuer", func(self *abt.ULT) { fn(self, k) })
	}
	for _, u := range ults {
		if err := u.Join(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// stored reads key straight from the provider's backend.
func (e *env) stored(t *testing.T, db uint32, key []byte) ([]byte, bool) {
	t.Helper()
	d, ok := e.prov.database(db)
	if !ok {
		t.Fatalf("database %d missing", db)
	}
	v, found, err := d.db.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return v, found
}

// TestPutPackedThroughRecycledScratch: 20k put_packed RPCs whose sizes
// alternate between a few bytes and a few KiB, so every recycled
// Context lands a pull in a scratch buffer last sized for a different
// request. A scratch handed to two requests at once, kept past its
// request, or read beyond the pull shows as a stored value that differs
// from the one sent.
func TestPutPackedThroughRecycledScratch(t *testing.T) {
	e := newEnv(t, fastCfg)
	db, err := e.prov.OpenLocal("scratch", "map")
	if err != nil {
		t.Fatal(err)
	}
	const issuers, perIssuer = 4, 5000
	size := func(k int) int { return []int{9, 3000, 48, 700, 1, 4200}[k%6] }
	e.issuers(t, issuers, func(self *abt.ULT, issuer int) {
		for k := 0; k < perIssuer; k++ {
			// Two pairs, so views past the first also count.
			k0, k1 := uint64(issuer)<<32|uint64(2*k), uint64(issuer)<<32|uint64(2*k+1)
			keys := [][]byte{keyBytes(k0), keyBytes(k1)}
			vals := [][]byte{stamped(k0, 0, size(k)), stamped(k1, 0, size(k+3))}
			if err := e.client.PutPacked(self, e.srv.Addr(), db, keys, vals); err != nil {
				t.Errorf("issuer %d put %d: %v", issuer, k, err)
				return
			}
		}
	})
	for issuer := 0; issuer < issuers; issuer++ {
		for k := 0; k < 2*perIssuer; k++ {
			key := uint64(issuer)<<32 | uint64(k)
			got, found := e.stored(t, db, keyBytes(key))
			if want := stamped(key, 0, size(k/2+3*(k%2))); !found || !bytes.Equal(got, want) {
				t.Fatalf("key %#x: stored %d bytes (found %v), differs from the %d sent", key, len(got), found, len(want))
			}
		}
	}
}

// TestPutPackedSizeIsCheckedBeforeItIsAllocated: a put_packed request's
// Size, NumKeys and region length are the client's word. A Size past its
// 64-byte region, also when the descriptor claims the region is that
// long, or a NumKeys its Size cannot hold, must be refused with the size
// named, and before the target sizes its scratch by it: 64 MiB of Size
// was a 64 MiB allocation, and 2^63 a panic in the handler.
func TestPutPackedSizeIsCheckedBeforeItIsAllocated(t *testing.T) {
	checkOversizedPacksRefused(t, RPCPutPacked, func(args putPackedArgs) mercury.Procable { return &args })
}

// checkOversizedPacksRefused forwards rpc, carrying each oversized
// packed batch wrapped by wrap, from a client to an elastic node, and
// wants every one refused with its size named and without the target
// allocating by it. put_packed and a migrate push share the guard.
func checkOversizedPacksRefused(t *testing.T, rpc string, wrap func(putPackedArgs) mercury.Procable) {
	t.Helper()
	e := newCluster(t, 1)
	sender, target := e.cliIn, e.nodes[0].Addr()
	if err := sender.RegisterClient(rpc); err != nil {
		t.Fatal(err)
	}
	region := sender.BulkCreate(make([]byte, 64))
	defer sender.BulkFree(region)
	claiming := func(n int) mercury.Bulk {
		forged := region
		forged.Mem.Len = n
		return forged
	}
	for _, args := range []putPackedArgs{
		{DBID: nodeDB, NumKeys: 1, Bulk: region, Size: 64 << 20},
		{DBID: nodeDB, NumKeys: 1, Bulk: region, Size: 1 << 63},
		{DBID: nodeDB, NumKeys: 1 << 20, Bulk: region, Size: 64},
		{DBID: nodeDB, NumKeys: 1, Bulk: claiming(64 << 20), Size: 64 << 20},
		{DBID: nodeDB, NumKeys: 1, Bulk: claiming(1 << 62), Size: 1 << 62},
	} {
		in := wrap(args)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		e.run(func(self *abt.ULT) error {
			err = sender.Forward(self, target, rpc, in, nil)
			return nil
		})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf(" %d bytes", args.Size)) {
			t.Errorf("%s of %d keys in %d bytes of a 64-byte region: %v", rpc, args.NumKeys, args.Size, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s refusing %d keys in %d bytes allocated %d bytes", rpc, args.NumKeys, args.Size, grew)
		}
	}
}

// TestPutPackedRetriesNeverExposeARecycledBuffer drives PutPacked with a
// per-try timeout of about one round trip over a link that delays a
// tenth of its traffic, so many tries give up while the target's pull
// of their buffer is still on the fabric, and the buffer goes back to
// the pool for the next call to overwrite. BulkFree is what has to stop
// such a pull: under -race a pull that still copied would be a data
// race with the next encode, and a value assembled from two calls'
// bytes matches no version its key was ever sent with.
func TestPutPackedRetriesNeverExposeARecycledBuffer(t *testing.T) {
	f := na.NewFabric(na.DefaultConfig())
	srv, err := margo.New(margo.Options{Mode: margo.ModeServer, Node: "n1", Name: "sdskv", Fabric: f, HandlerStreams: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() }) // registered first: runs after the clients'
	prov, err := RegisterProvider(srv, fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := prov.OpenLocal("retry", "map")
	if err != nil {
		t.Fatal(err)
	}
	newClient := func(name string, retry *margo.RetryPolicy) (*margo.Instance, *Client) {
		inst, err := margo.New(margo.Options{Mode: margo.ModeClient, Node: "n0", Name: name, Fabric: f, Retry: retry})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { inst.Shutdown() })
		c, err := NewClient(inst)
		if err != nil {
			t.Fatal(err)
		}
		inst.MarkIdempotent(RPCPutPacked)
		return inst, c
	}
	e := &env{srv: srv, prov: prov}

	// The timeout is twice the median round trip of this very call as one
	// issuer on a healthy link sees it (measured by a client without a
	// retry policy) — about what each of the four issuers below sees.
	const valueSize = 8 << 10
	e.cli, e.client = newClient("probe", nil)
	rtts := make([]time.Duration, 101)
	if err := e.run(t, func(self *abt.ULT) error {
		for k := range rtts {
			start := time.Now()
			if err := e.client.PutPacked(self, srv.Addr(), db, [][]byte{keyBytes(1 << 60)}, [][]byte{stamped(1<<60, 0, valueSize)}); err != nil {
				return err
			}
			rtts[k] = time.Since(start)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(rtts, func(a, b int) bool { return rtts[a] < rtts[b] })
	rtt := 2 * rtts[len(rtts)/2]

	e.cli, e.client = newClient("cli", &margo.RetryPolicy{
		MaxAttempts: 4, PerTryTimeout: rtt, InitialBackoff: 10 * time.Microsecond, MaxBackoff: 100 * time.Microsecond, Budget: -1,
	})
	slow := na.FaultRule{DelayProb: 0.1, Delay: rtt}
	f.SetFaultPlan(na.NewFaultPlan(3).SetLink(e.cli.Addr(), srv.Addr(), slow).SetLink(srv.Addr(), e.cli.Addr(), slow))

	const issuers, perIssuer = 4, 600
	var acked, gaveUp atomic.Int64
	e.issuers(t, issuers, func(self *abt.ULT, issuer int) {
		key := uint64(issuer + 1)
		for v := uint32(1); v <= perIssuer; v++ {
			err := e.client.PutPacked(self, srv.Addr(), db, [][]byte{keyBytes(key)}, [][]byte{stamped(key, v, valueSize)})
			switch {
			case err == nil:
				acked.Add(1)
			case errors.Is(err, mercury.ErrCanceled), errors.Is(err, mercury.ErrHandlerFail):
				// Every try timed out, or the last one's pull found its
				// region already revoked.
				gaveUp.Add(1)
			default:
				t.Errorf("issuer %d version %d: %v", issuer, v, err)
				return
			}
		}
	})
	f.SetFaultPlan(nil)
	rs := e.cli.RetryStats()
	t.Logf("per-try timeout %v: %d acked, %d gave up, %d timeouts, %d retries", rtt, acked.Load(), gaveUp.Load(), rs.Timeouts, rs.Retries)
	if rs.Timeouts == 0 || rs.Retries == 0 || acked.Load() == 0 {
		t.Fatalf("no try raced its timeout (timeouts %d, retries %d, acked %d): the test did not reach the path it is for", rs.Timeouts, rs.Retries, acked.Load())
	}
	for issuer := 0; issuer < issuers; issuer++ {
		key := uint64(issuer + 1)
		got, found := e.stored(t, db, keyBytes(key))
		if !found || len(got) != valueSize {
			t.Fatalf("key %d: stored %d bytes, found %v", key, len(got), found)
		}
		sent := false
		for v := uint32(1); v <= perIssuer && !sent; v++ {
			sent = bytes.Equal(got, stamped(key, v, valueSize))
		}
		if !sent {
			t.Errorf("key %d: the stored value is not one this key was sent with", key)
		}
	}
}

// roundTripAllocs runs call on a client ULT of e, a deployment set to
// StageFull here, until pools are warm, then reports what one of runs
// calls costs the whole process: origin and target, progress ULTs, trace
// events included.
func roundTripAllocs(t *testing.T, e *env, backend string, runs int, call func(e *env, self *abt.ULT, db uint32, n uint64) error) float64 {
	t.Helper()
	if mercury.RaceEnabled {
		t.Skip("pooled records are dropped at random under the race detector")
	}
	e.srv.SetStage(core.StageFull)
	e.cli.SetStage(core.StageFull)
	db, err := e.prov.OpenLocal("pin", backend)
	if err != nil {
		t.Fatal(err)
	}
	var a float64
	if err := e.run(t, func(self *abt.ULT) error {
		var n uint64
		var ferr error
		one := func() {
			n++
			if err := call(e, self, db, n); err != nil && ferr == nil {
				ferr = err
			}
		}
		for k := 0; k < runs/4; k++ {
			one()
		}
		a = testing.AllocsPerRun(runs, one)
		return ferr
	}); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestPutPackedRoundTripAllocs pins a whole single-pair packed put —
// origin and target, the bulk pull and the backend insert included: the
// frames, handles, call records and the decoded batch are all recycled,
// so what is left is the store's amortised share (its chunk table, tree
// nodes, trace chunk), under one object per put.
func TestPutPackedRoundTripAllocs(t *testing.T) {
	keys, vals := [][]byte{make([]byte, 48)}, [][]byte{make([]byte, 512)}
	a := roundTripAllocs(t, newEnv(t, fastCfg), "map", 2000, func(e *env, self *abt.ULT, db uint32, n uint64) error {
		binary.BigEndian.PutUint64(keys[0], n)
		return e.client.PutPacked(self, e.srv.Addr(), db, keys, vals)
	})
	if a > 1 {
		t.Errorf("PutPacked round trip allocates %.2f objects, want <= 1", a)
	}
}

// TestPutGetRoundTripAllocs pins the single-pair calls the same way. A
// Put leaves the store's share. A Get leaves the caller's copy of the
// value and nothing else — the target reads the value into its request's
// scratch, and the response frame is recycled — and GetInto into a
// buffer with room leaves nothing at all.
func TestPutGetRoundTripAllocs(t *testing.T) {
	key, val := make([]byte, 48), make([]byte, 256)
	put := func(e *env, self *abt.ULT, db uint32, n uint64) error {
		binary.BigEndian.PutUint64(key, n%64)
		return e.client.Put(self, e.srv.Addr(), db, key, val)
	}
	if a := roundTripAllocs(t, newEnv(t, fastCfg), "map", 2000, put); a > 1 {
		t.Errorf("Put round trip allocates %.2f objects, want <= 1", a)
	}
	get := func(dst []byte) func(e *env, self *abt.ULT, db uint32, n uint64) error {
		return func(e *env, self *abt.ULT, db uint32, n uint64) error {
			if n <= 64 {
				return put(e, self, db, n)
			}
			binary.BigEndian.PutUint64(key, n%64)
			var got []byte
			var found bool
			var err error
			if dst == nil {
				got, found, err = e.client.Get(self, e.srv.Addr(), db, key)
			} else {
				got, found, err = e.client.GetInto(self, e.srv.Addr(), db, key, dst)
			}
			if err == nil && (!found || !bytes.Equal(got, val)) {
				err = fmt.Errorf("get = %d bytes, found %v", len(got), found)
			}
			return err
		}
	}
	if a := roundTripAllocs(t, newEnv(t, fastCfg), "map", 2000, get(nil)); a > 1 {
		t.Errorf("Get round trip allocates %.2f objects, want <= 1 (the caller's copy)", a)
	}
	if a := roundTripAllocs(t, newEnv(t, fastCfg), "map", 2000, get(make([]byte, 0, len(val)))); a != 0 {
		t.Errorf("GetInto round trip into a buffer with room allocates %.2f objects, want 0", a)
	}
}

// TestListKeyvalsRoundTripAllocs: a 64-pair listing into a reused
// Listing allocates nothing, target included — the provider lists into a
// pooled header array and a recycled arena, the response frame is
// recycled, and the Listing keeps the capacity it grew to.
func TestListKeyvalsRoundTripAllocs(t *testing.T) {
	key, val := make([]byte, 48), make([]byte, 16)
	var l Listing
	a := roundTripAllocs(t, newEnv(t, fastCfg), "map", 2000, func(e *env, self *abt.ULT, db uint32, n uint64) error {
		if n <= 64 {
			binary.BigEndian.PutUint64(key, n)
			return e.client.Put(self, e.srv.Addr(), db, key, val)
		}
		if err := e.client.ListKeyvals(self, e.srv.Addr(), db, nil, 64, &l); err != nil {
			return err
		}
		if len(l.Keys) != 64 || !bytes.Equal(l.Values[63], val) {
			return fmt.Errorf("listing of %d pairs", len(l.Keys))
		}
		return nil
	})
	if a != 0 {
		t.Errorf("ListKeyvals of 64 pairs into a reused Listing allocates %.2f objects, want 0", a)
	}
}

// TestGetMultiRoundTripAllocs pins a 64-key GetMulti through the
// coalescer, its one vectored frame and the target's 64 handlers
// included: the call's five arrays, its shared-buffer record and one
// value buffer, and the per-call records of the coalescer and the
// vectored frame (15 objects on the author's host). Nothing is allocated
// per key.
func TestGetMultiRoundTripAllocs(t *testing.T) {
	const n = 64
	e := newBatchEnv(t, fastCfg, batch.Policy{MaxOps: n, MaxDelay: time.Millisecond})
	keys, vals := make([][]byte, n), make([][]byte, n)
	for k := range keys {
		keys[k], vals[k] = keyBytes(uint64(k)), stamped(uint64(k), 0, 256)
	}
	a := roundTripAllocs(t, e, "map", 200, func(e *env, self *abt.ULT, db uint32, call uint64) error {
		if call == 1 {
			return errors.Join(e.client.PutMulti(self, e.srv.Addr(), db, keys, vals)...)
		}
		got, found, errs := e.client.GetMulti(self, e.srv.Addr(), db, keys)
		for k := range keys {
			if errs[k] != nil || !found[k] || !bytes.Equal(got[k], vals[k]) {
				return fmt.Errorf("key %d: %d bytes, found %v, %v", k, len(got[k]), found[k], errs[k])
			}
		}
		return nil
	})
	t.Logf("GetMulti of %d keys: %.0f objects", n, a)
	if a > 16 {
		t.Errorf("GetMulti round trip of %d keys allocates %.0f objects, want <= 16", n, a)
	}
}

// TestPackedBatchDecodeAllocs: a 64-pair batch decodes into its two
// slice-header arrays and nothing else.
func TestPackedBatchDecodeAllocs(t *testing.T) {
	var in packedBatch
	var f Frame
	for k := 0; k < 64; k++ {
		in.Keys = append(in.Keys, keyBytes(uint64(k)))
		in.Values = append(in.Values, stamped(uint64(k), 0, 512))
		f.Add(in.Keys[k], in.Values[k])
	}
	wire := append([]byte(nil), f.bytes()...)
	f.Release()
	var out packedBatch
	a := testing.AllocsPerRun(200, func() {
		out = packedBatch{}
		if err := mercury.Decode(wire, &out); err != nil {
			t.Fatal(err)
		}
	})
	if !mercury.RaceEnabled && a > 2 {
		t.Errorf("Decode of a 64-pair batch allocates %.1f objects, want <= 2", a)
	}
	if len(out.Keys) != 64 || !bytes.Equal(out.Values[63], in.Values[63]) {
		t.Fatal("decoded batch differs")
	}
}

// FuzzPackedBatch feeds arbitrary bytes to the packed-batch decoder,
// which slices a buffer a client controls: a count the input cannot
// hold fails before headers are sized for it, accepted input must decode
// to views inside it and a Frame of the decoded pairs must be the bytes
// consumed, rejected input must not panic. Seeds:
// testdata/fuzz/FuzzPackedBatch.
func FuzzPackedBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var b packedBatch
		err := mercury.Decode(data, &b)
		if cap(b.Keys) > len(data)/4 || cap(b.Values) > len(data)/4 {
			t.Fatalf("%d input bytes grew %d key and %d value headers", len(data), cap(b.Keys), cap(b.Values))
		}
		if err != nil {
			return
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		for _, v := range append(append([][]byte(nil), b.Keys...), b.Values...) {
			p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
			if len(v) > 0 && (cap(v) != len(v) || p < lo || p+uintptr(len(v)) > lo+uintptr(len(data))) {
				t.Fatalf("decoded element %q is not a clipped view of the input", v)
			}
		}
		var fr Frame
		defer fr.Release()
		for i := range b.Keys {
			fr.Add(b.Keys[i], b.Values[i])
		}
		if wire := fr.bytes(); len(wire) > len(data) || !bytes.Equal(wire, data[:len(wire)]) {
			t.Fatalf("re-encode = %x; want a prefix of %x", wire, data)
		}
	})
}

// TestGetMultiRepliesDecodeConcurrently: the members of one GetMulti
// call share its value buffer, and nothing promises that the flights
// they rode complete on one stream — margo decodes a flight's replies
// wherever its completion runs. Replies of one call decoded from eight
// goroutines at once must each come out as sent, intact after the rest
// have been appended behind them; under -race an unguarded append is a
// reported race as well.
func TestGetMultiRepliesDecodeConcurrently(t *testing.T) {
	const n, decoders = 64, 8
	wires := make([][]byte, n)
	for k := range wires {
		var err error
		if wires[k], err = mercury.Encode(&getResp{Found: true, Value: stamped(uint64(k), 0, 16+k)}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 50; round++ {
		multi := &multiValues{due: n}
		resps := make([]getResp, n)
		var wg sync.WaitGroup
		for d := 0; d < decoders; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				for k := d; k < n; k += decoders {
					resps[k].multi = multi
					if err := mercury.Decode(wires[k], &resps[k]); err != nil {
						t.Error(err)
					}
				}
			}(d)
		}
		wg.Wait()
		for k := range resps {
			if v := resps[k].Value; !bytes.Equal(v, stamped(uint64(k), 0, 16+k)) || cap(v) != len(v) {
				t.Fatalf("round %d: reply %d decoded to %d bytes (cap %d), not the %d sent", round, k, len(v), cap(v), 16+k)
			}
		}
	}
}

// FuzzListReply feeds arbitrary bytes to the list reply decoder, which
// copies a listing a provider sent out of the response frame into a
// Listing: a count the input cannot hold fails before anything is
// allocated for it, a key count that differs from the value count is an
// error, every accepted pair is a capacity-clipped slice of the Listing's
// own buffer, and accepted input encodes back to the bytes consumed.
// Seeds: testdata/fuzz/FuzzListReply.
func FuzzListReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var l Listing
		err := mercury.Decode(data, &listResp{l: &l})
		if cap(l.Keys) > len(data)/4 || cap(l.Values) > len(data)/4 || cap(l.buf) > 2*len(data)+16 {
			t.Fatalf("%d input bytes grew %d key and %d value headers and a %d-byte buffer", len(data), cap(l.Keys), cap(l.Values), cap(l.buf))
		}
		var raw twoArrays
		if mercury.Decode(data, &raw) == nil && len(raw.Keys) != len(raw.Values) && err == nil {
			t.Fatalf("a listing of %d keys and %d values was accepted", len(raw.Keys), len(raw.Values))
		}
		if err != nil {
			if len(l.Keys)+len(l.Values)+len(l.buf) != 0 {
				t.Fatalf("a rejected listing left %d keys, %d values, %d bytes", len(l.Keys), len(l.Values), len(l.buf))
			}
			return
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(l.buf)))
		for _, v := range append(append([][]byte(nil), l.Keys...), l.Values...) {
			p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
			if len(v) > 0 && (cap(v) != len(v) || p < lo || p+uintptr(len(v)) > lo+uintptr(len(l.buf))) {
				t.Fatalf("listed element %q is not a clipped slice of the Listing's buffer", v)
			}
		}
		wire, err := mercury.Encode(&listResp{l: &l})
		if err != nil || !bytes.Equal(wire, data[:min(len(wire), len(data))]) || len(wire) > len(data) {
			t.Fatalf("re-encode = %x, %v; want a prefix of %x", wire, err, data)
		}
	})
}

// twoArrays is a listing's two byte-slice arrays decoded as views.
type twoArrays struct{ Keys, Values [][]byte }

func (a *twoArrays) Proc(pr *mercury.Proc) error {
	pr.BytesSlice(&a.Keys)
	pr.BytesSlice(&a.Values)
	return pr.Err()
}

// TestListReplyIsListRespOnTheWire: the provider encodes a listing
// straight from the backend's pairs; a client decodes the same bytes as
// the listResp it always read.
func TestListReplyIsListRespOnTheWire(t *testing.T) {
	pairs := []kv.Pair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("bb"), Value: nil}, {Key: []byte("ccc"), Value: []byte("333")}}
	for _, n := range []int{0, 1, len(pairs)} {
		reply := listReply(pairs[:n])
		got, err := mercury.Encode(&reply)
		if err != nil {
			t.Fatal(err)
		}
		resp := listResp{l: &Listing{Keys: make([][]byte, n), Values: make([][]byte, n)}}
		for i, p := range pairs[:n] {
			resp.l.Keys[i], resp.l.Values[i] = p.Key, p.Value
		}
		want, err := mercury.Encode(&resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d pairs: listReply encodes to %x, listResp to %x", n, got, want)
		}
	}
	var reply listReply
	if err := mercury.Decode([]byte{0, 0, 0, 0, 0, 0, 0, 0}, &reply); err == nil {
		t.Error("a listReply decoded")
	}
}
