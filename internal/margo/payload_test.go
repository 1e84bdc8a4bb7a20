package margo

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"symbiosys/internal/abt"
	"symbiosys/internal/na"
)

// nonceValue is the payload every request with this nonce carries.
func nonceValue(nonce uint64, n int) []byte {
	v := make([]byte, n)
	for k := range v {
		v[k] = byte(nonce) + byte(k)*7
	}
	return v
}

// TestDecodedInputIsPrivateToItsRequest holds the payload ownership
// rule to its two consequences. GetInput hands a handler views of the
// received frame, which is recycled once the handler has returned, so
// (1) a view must still read as it was sent for as long as the handler
// runs — after Respond, after the origin has moved on and a thousand
// other frames have been recycled around it — and (2) a handler that
// scribbles over its own input must not be seen by any other request,
// including the twin the fault plane's dup makes of every message here,
// which is the one case where two handlers decode the same bytes. Run
// under -race: a shared frame is also a data race between the scribbler
// and its twin, and a recycled frame reads 0xDB.
func TestDecodedInputIsPrivateToItsRequest(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", HandlerStreams: 4})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})

	var mu sync.Mutex
	kept := 0
	// Every message is delivered twice, so every request runs two
	// handlers; only the first one's response reaches the origin.
	const issuers, perIssuer = 4, 500
	var handlers sync.WaitGroup
	handlers.Add(2 * issuers * perIssuer)
	check := func(rpc string, in *kvArgs) bool {
		var nonce uint64
		fmt.Sscanf(in.Key, "%d", &nonce)
		if !bytes.Equal(in.Value, nonceValue(nonce, len(in.Value))) {
			t.Errorf("%s %s: input is not what its origin sent", rpc, in.Key)
			return false
		}
		return true
	}
	if err := srv.Register("keep", func(ctx *Context) {
		defer handlers.Done()
		var in kvArgs
		if err := ctx.GetInput(&in); err != nil {
			ctx.RespondError("decode: %v", err)
			return
		}
		check("keep", &in)
		ctx.Respond(&in)
		// Linger past the response: the origin issues its next requests
		// while this handler still holds its views.
		for k := 0; k < 8; k++ {
			ctx.Self.Yield()
		}
		check("kept", &in)
		mu.Lock()
		kept++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("scribble", func(ctx *Context) {
		defer handlers.Done()
		var in kvArgs
		if err := ctx.GetInput(&in); err != nil {
			ctx.RespondError("decode: %v", err)
			return
		}
		ok := check("scribble", &in)
		for k := range in.Value {
			in.Value[k] = 0xEE
		}
		if ok {
			ctx.Respond(&kvArgs{Key: in.Key})
		} else {
			ctx.RespondError("scribble: input already modified")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := cli.RegisterClient("keep", "scribble"); err != nil {
		t.Fatal(err)
	}
	c.fabric.SetFaultPlan(na.NewFaultPlan(7).SetLink(cli.Addr(), srv.Addr(), na.FaultRule{DupProb: 1}))

	runIssuers(t, cli, issuers, func(self *abt.ULT, issuer int) {
		for k := 0; k < perIssuer; k++ {
			nonce := uint64(issuer*perIssuer + k)
			rpc := "keep"
			if k%2 == 1 {
				rpc = "scribble"
			}
			sent := nonceValue(nonce, 64+k%200)
			in, out := kvArgs{Key: fmt.Sprint(nonce), Value: sent}, kvReply{}
			if err := cli.Forward(self, srv.Addr(), rpc, &in, &out); err != nil {
				t.Errorf("%s %d: %v", rpc, nonce, err)
				return
			}
			if !bytes.Equal(in.Value, nonceValue(nonce, len(sent))) {
				t.Errorf("%s %d: the target's handler changed the origin's buffer", rpc, nonce)
			}
			if rpc == "keep" && !bytes.Equal(out.Value, sent) {
				t.Errorf("keep %d: echo differs from what was sent", nonce)
			}
		}
	})
	if dups := c.fabric.FaultStats().Dups; dups < issuers*perIssuer {
		t.Fatalf("fault plane duplicated %d messages, want every one of %d", dups, issuers*perIssuer)
	}
	handlers.Wait()

	mu.Lock()
	defer mu.Unlock()
	if kept != issuers*perIssuer { // every keep ran twice
		t.Errorf("%d inputs kept, want %d", kept, issuers*perIssuer)
	}
}
