package mercury

import (
	"strings"
	"testing"
	"time"

	"symbiosys/internal/na"
)

// BenchmarkProcEncode measures serializing a mid-size argument struct.
func BenchmarkProcEncode(b *testing.B) {
	args := echoArgs{Msg: strings.Repeat("x", 1024), N: 42}
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		if _, err := Encode(&args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcDecode measures the matching deserialization.
func BenchmarkProcDecode(b *testing.B) {
	args := echoArgs{Msg: strings.Repeat("x", 1024), N: 42}
	buf, _ := Encode(&args)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out echoArgs
		if err := Decode(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCRoundTrip measures end-to-end small-RPC latency through
// the full stack: codec, fabric, progress, trigger, callbacks.
func BenchmarkRPCRoundTrip(b *testing.B) {
	f := na.NewFabric(na.DefaultConfig())
	cep, _ := f.NewEndpoint("n0", "cli")
	sep, _ := f.NewEndpoint("n1", "srv")
	client := NewClass(cep, Config{})
	server := NewClass(sep, Config{})
	server.Register("bench_rpc", func(h *Handle) {
		h.Respond(&Void{}, Meta{}, nil)
	})
	client.Register("bench_rpc", nil)
	cpl, spl := drive(client), drive(server)
	defer cpl.Stop()
	defer spl.Stop()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := client.Create(server.Addr(), "bench_rpc")
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		h.Forward(&Void{}, Meta{}, func(h *Handle, err error) { done <- err })
		select {
		case err := <-done:
			if err != nil {
				b.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			b.Fatal("rpc timed out")
		}
		h.Destroy()
	}
}

// BenchmarkPVarRead measures sampling one global PVAR through a session.
func BenchmarkPVarRead(b *testing.B) {
	f := na.NewFabric(na.DefaultConfig())
	ep, _ := f.NewEndpoint("n0", "x")
	c := NewClass(ep, Config{})
	s := c.PVars().InitSession()
	defer s.Finalize()
	h, err := s.AllocHandleByName(PVarNumRPCsInvoked)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read(h, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFramePack measures wire-frame assembly.
func BenchmarkFramePack(b *testing.B) {
	hdr := reqHeader{RPCID: 1, Cookie: 2, Flags: flagTrace, Breadcrumb: 3, RequestID: 4, Order: 5}
	payload := make([]byte, 512)
	b.SetBytes(512)
	for i := 0; i < b.N; i++ {
		putFrame(hdr.pack(payload))
	}
}
