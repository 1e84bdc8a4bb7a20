package margo

import (
	"testing"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/mercury"
)

// seqArgs is a payload whose codec allocates nothing, so the pins below
// count the RPC path alone.
type seqArgs struct{ N uint64 }

func (a *seqArgs) Proc(p *mercury.Proc) error { return p.Uint64(&a.N) }

// TestForwardRoundTripAllocs pins what one blocking Forward costs the
// whole process at StageFull once pools are warm: origin and target
// together, progress ULTs and timer goroutines included. The one object
// left is this test's: the handler declares its argument on the stack,
// and it escapes through the codec's interface (a service keeps it in a
// mercury.Records pool instead). Frames are encoded in place and
// recycled by the handle that received them, handles and Contexts are
// recycled, fabric messages travel by value, and the four trace events
// are bytes in a chunk allocated once per several hundred of them.
func TestForwardRoundTripAllocs(t *testing.T) {
	if mercury.RaceEnabled {
		t.Skip("pooled records are dropped at random under the race detector")
	}
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})
	if err := srv.Register("seq", func(ctx *Context) {
		var in seqArgs
		if err := ctx.GetInput(&in); err != nil {
			ctx.RespondError("decode: %v", err)
			return
		}
		in.N++
		ctx.Respond(&in)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cli.RegisterClient("seq"); err != nil {
		t.Fatal(err)
	}
	if err := call(t, cli, func(self *abt.ULT) error {
		var arg seqArgs
		var ferr error
		forward := func() {
			want := arg.N + 1
			if err := cli.Forward(self, srv.Addr(), "seq", &arg, &arg); err != nil && ferr == nil {
				ferr = err
			}
			if arg.N != want {
				t.Errorf("echo = %d, want %d", arg.N, want)
			}
		}
		for k := 0; k < 512; k++ {
			forward()
		}
		if n := testing.AllocsPerRun(2000, forward); n > 1 {
			t.Errorf("Forward round trip allocates %.2f objects, want <= 1", n)
		}
		return ferr
	}); err != nil {
		t.Fatal(err)
	}
}

// TestBulkPullAllocs pins a blocking bulk pull issued from a handler:
// the wait rides a pooled call record, the transfer a pooled Mercury op
// and the fabric's per-peer RDMA chain.
func TestBulkPullAllocs(t *testing.T) {
	if mercury.RaceEnabled {
		t.Skip("pooled records are dropped at random under the race detector")
	}
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})

	src := make([]byte, 4096)
	for k := range src {
		src[k] = byte(k)
	}
	bulk := cli.BulkCreate(src)
	defer cli.BulkFree(bulk)

	var allocs float64
	if err := srv.Register("pull", func(ctx *Context) {
		dst := make([]byte, len(src))
		pull := func() {
			if err := ctx.BulkPull(bulk, 0, dst); err != nil {
				t.Errorf("BulkPull: %v", err)
			}
		}
		for k := 0; k < 64; k++ {
			pull()
		}
		allocs = testing.AllocsPerRun(500, pull)
		if dst[len(dst)-1] != src[len(src)-1] {
			t.Errorf("pulled data mismatch")
		}
		ctx.Respond(mercury.Void{})
	}); err != nil {
		t.Fatal(err)
	}
	if err := cli.RegisterClient("pull"); err != nil {
		t.Fatal(err)
	}
	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "pull", mercury.Void{}, nil)
	}); err != nil {
		t.Fatal(err)
	}
	if allocs > 3 {
		t.Errorf("BulkPull allocates %.2f objects, want <= 3", allocs)
	}
}
