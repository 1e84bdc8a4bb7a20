package mercury

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// registerBatchEcho installs an echo handler that fails entries whose
// Msg is "fail", so per-entry statuses diverge inside one frame.
func registerBatchEcho(t *testing.T, p testPair) {
	t.Helper()
	if err := p.server.Register("batch_echo", func(h *Handle) {
		var in echoArgs
		if err := h.GetInput(&in); err != nil {
			h.RespondError(err.Error(), Meta{}, nil)
			return
		}
		if in.Msg == "fail" {
			h.RespondError("boom", Meta{}, nil)
			return
		}
		out := echoArgs{Msg: strings.ToUpper(in.Msg), N: in.N + 1}
		if err := h.Respond(&out, Meta{}, nil); err != nil {
			t.Errorf("Respond: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Register("batch_echo", nil); err != nil {
		t.Fatal(err)
	}
}

func forwardBatchWait(t *testing.T, h *Handle, id uint64, b *BatchBuilder) error {
	t.Helper()
	done := make(chan error, 1)
	if err := h.ForwardBatch(id, b, func(h *Handle, err error) { done <- err }); err != nil {
		return err
	}
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("batch forward timed out")
		return nil
	}
}

// TestBatchRoundTrip sends one vectored frame with three sub-requests
// and checks that each entry gets its own verdict: two echoes succeed,
// the middle one fails, and outputs decode per entry.
func TestBatchRoundTrip(t *testing.T) {
	p := newRPCPair(t, Config{})
	registerBatchEcho(t, p)

	h, err := p.client.Create(p.server.Addr(), "batch_echo")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Destroy()

	b := AcquireBatch()
	defer b.Release()
	for _, m := range []string{"one", "fail", "three"} {
		if err := b.Add(&echoArgs{Msg: m, N: 1}, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if b.Count() != 3 || b.Bytes() == 0 {
		t.Fatalf("builder count=%d bytes=%d", b.Count(), b.Bytes())
	}
	if err := forwardBatchWait(t, h, 42, b); err != nil {
		t.Fatalf("batch forward: %v", err)
	}
	if h.BatchLen() != 3 {
		t.Fatalf("BatchLen = %d", h.BatchLen())
	}

	var out echoArgs
	if err := h.BatchEntryErr(0); err != nil {
		t.Fatalf("entry 0: %v", err)
	}
	if err := h.BatchEntryOutput(0, &out); err != nil || out.Msg != "ONE" || out.N != 2 {
		t.Fatalf("entry 0 output = %+v, %v", out, err)
	}
	if err := h.BatchEntryErr(1); !errors.Is(err, ErrHandlerFail) {
		t.Fatalf("entry 1 err = %v, want ErrHandlerFail", err)
	}
	if err := h.BatchEntryErr(2); err != nil {
		t.Fatalf("entry 2: %v", err)
	}
	if err := h.BatchEntryOutput(2, &out); err != nil || out.Msg != "THREE" {
		t.Fatalf("entry 2 output = %+v, %v", out, err)
	}
}

// TestBatchBuilderReuse verifies Reset clears state for the next window
// while retaining capacity, and that a reused builder round-trips.
func TestBatchBuilderReuse(t *testing.T) {
	p := newRPCPair(t, Config{})
	registerBatchEcho(t, p)

	b := AcquireBatch()
	defer b.Release()
	for round := 0; round < 3; round++ {
		b.Reset()
		if b.Count() != 0 || b.Bytes() != 0 {
			t.Fatalf("round %d: dirty builder after Reset", round)
		}
		if err := b.Add(&echoArgs{Msg: "ping", N: uint64(round)}, Meta{}); err != nil {
			t.Fatal(err)
		}
		h, err := p.client.Create(p.server.Addr(), "batch_echo")
		if err != nil {
			t.Fatal(err)
		}
		if err := forwardBatchWait(t, h, uint64(round+1), b); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var out echoArgs
		if err := h.BatchEntryOutput(0, &out); err != nil || out.N != uint64(round)+1 {
			t.Fatalf("round %d output = %+v, %v", round, out, err)
		}
		h.Destroy()
	}
}

// TestMalformedBatchFrameDropped corrupts an entry's length field so
// the target cannot parse the frame. The whole frame must be dropped
// before any sub-request is delivered — no partial fan-out — and the
// server must keep servicing well-formed batches afterwards.
func TestMalformedBatchFrameDropped(t *testing.T) {
	p := newRPCPair(t, Config{})
	registerBatchEcho(t, p)

	bad := AcquireBatch()
	defer bad.Release()
	if err := bad.Add(&echoArgs{Msg: "x", N: 1}, Meta{}); err != nil {
		t.Fatal(err)
	}
	// Truncate the encoded buffer mid-entry: the header still claims
	// one entry, but its payload length now overruns the frame.
	bad.buf = bad.buf[:len(bad.buf)-1]

	h1, err := p.client.Create(p.server.Addr(), "batch_echo")
	if err != nil {
		t.Fatal(err)
	}
	fired := make(chan error, 1)
	if err := h1.ForwardBatch(1, bad, func(h *Handle, err error) { fired <- err }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-fired:
		t.Fatalf("corrupt batch completed (%v), want silent drop", err)
	case <-time.After(100 * time.Millisecond):
	}
	h1.Cancel()
	h1.Destroy()

	// The server survived and still answers a valid batch.
	good := AcquireBatch()
	defer good.Release()
	if err := good.Add(&echoArgs{Msg: "ok", N: 1}, Meta{}); err != nil {
		t.Fatal(err)
	}
	h2, err := p.client.Create(p.server.Addr(), "batch_echo")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Destroy()
	if err := forwardBatchWait(t, h2, 2, good); err != nil {
		t.Fatalf("batch after corrupt frame: %v", err)
	}
	if err := h2.BatchEntryErr(0); err != nil {
		t.Fatalf("entry err after recovery: %v", err)
	}
}

// TestAppendEncodeSteadyStateAllocs pins the hot encode path to zero
// allocations: encoding into a buffer with capacity reuses it in place
// (ISSUE 6 satellite c).
func TestAppendEncodeSteadyStateAllocs(t *testing.T) {
	in := &kvWire{Key: []byte("steady-state-key"), Value: make([]byte, 256)}
	buf, err := AppendEncode(make([]byte, 0, 1024), in)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(1000, func() {
		out, err := AppendEncode(buf[:0], in)
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	})
	if n != 0 {
		t.Fatalf("AppendEncode allocates %v/op on the steady path, want 0", n)
	}
}

// TestDecodeReuseSteadyStateAllocs pins the hot decode path: byte
// slices decode as views of the wire buffer, so decoding allocates
// nothing whatever the destination held before (string fields are one
// allocation each, so the pin uses a bytes-only payload — the shape of
// the KV hot path).
func TestDecodeReuseSteadyStateAllocs(t *testing.T) {
	kv := &kvWire{Key: []byte("key-000"), Value: make([]byte, 256)}
	wire, err := Encode(kv)
	if err != nil {
		t.Fatal(err)
	}
	dst := &kvWire{Key: make([]byte, 0, 64), Value: make([]byte, 0, 512)}
	if err := Decode(wire, dst); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(1000, func() {
		if err := Decode(wire, dst); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("Decode of a bytes-only payload allocates %v/op, want 0", n)
	}
	if string(dst.Key) != "key-000" || len(dst.Value) != 256 {
		t.Fatalf("decode corrupted: key=%q len(value)=%d", dst.Key, len(dst.Value))
	}
}

// kvWire is a bytes-only payload for the zero-alloc decode pin.
type kvWire struct {
	Key, Value []byte
}

func (a *kvWire) Proc(p *Proc) error {
	p.Bytes(&a.Key)
	p.Bytes(&a.Value)
	return p.Err()
}

// TestBatchAddSteadyStateAllocs pins BatchBuilder.Add to zero
// allocations once the builder's buffer has grown to working size.
func TestBatchAddSteadyStateAllocs(t *testing.T) {
	b := AcquireBatch()
	defer b.Release()
	in := &kvWire{Key: []byte("key"), Value: make([]byte, 128)}
	meta := Meta{RequestID: 1, Breadcrumb: 2, Order: 3, HasTrace: true}
	// Warm: grow the buffer to one window's size.
	for i := 0; i < 64; i++ {
		if err := b.Add(in, meta); err != nil {
			t.Fatal(err)
		}
	}
	b.Reset()
	k := 0
	n := testing.AllocsPerRun(1000, func() {
		if err := b.Add(in, meta); err != nil {
			t.Fatal(err)
		}
		if k++; k%64 == 0 {
			b.Reset()
		}
	})
	if n != 0 {
		t.Fatalf("BatchBuilder.Add allocates %v/op, want 0", n)
	}
}
