package experiments

import (
	"strings"
	"sync"
	"testing"

	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/services/sonata"
)

// lossyStore answers Sonata's RPCs from one in-memory collection and
// applies fault to every incoming batch before keeping it: a stand-in
// for a provider that acknowledges documents it does not hold.
type lossyStore struct {
	fault func(docs [][]byte) [][]byte
	mu    sync.Mutex
	docs  [][]byte
}

// The wire shapes of the four RPCs the scenario issues, field for field
// what the sonata package encodes.
type (
	wireColl  struct{ Name string }
	wireStore struct {
		Coll string
		Docs [][]byte
	}
	wireFetch struct {
		Coll string
		ID   uint64
	}
	wireDoc struct {
		Found bool
		Doc   []byte
	}
	wireCount struct{ N uint64 }
)

func (a *wireColl) Proc(p *mercury.Proc) error { return p.String(&a.Name) }
func (a *wireStore) Proc(p *mercury.Proc) error {
	p.String(&a.Coll)
	return p.BytesSlice(&a.Docs)
}
func (a *wireFetch) Proc(p *mercury.Proc) error {
	p.String(&a.Coll)
	return p.Uint64(&a.ID)
}
func (a *wireDoc) Proc(p *mercury.Proc) error {
	p.Bool(&a.Found)
	return p.Bytes(&a.Doc)
}
func (a *wireCount) Proc(p *mercury.Proc) error { return p.Uint64(&a.N) }

func (s *lossyStore) register(srv *margo.Instance) error {
	handlers := map[string]margo.HandlerFunc{
		sonata.RPCCreateCollection: func(ctx *margo.Context) {
			var in wireColl
			if err := ctx.GetInput(&in); err != nil {
				ctx.RespondError("%v", err)
				return
			}
			ctx.Respond(mercury.Void{})
		},
		sonata.RPCStoreMultiJSON: func(ctx *margo.Context) {
			var in wireStore
			if err := ctx.GetInput(&in); err != nil {
				ctx.RespondError("%v", err)
				return
			}
			s.mu.Lock()
			first := uint64(len(s.docs))
			for _, d := range s.fault(in.Docs) {
				s.docs = append(s.docs, append([]byte(nil), d...))
			}
			s.mu.Unlock()
			ctx.Respond(&wireCount{N: first})
		},
		sonata.RPCFetch: func(ctx *margo.Context) {
			var in wireFetch
			if err := ctx.GetInput(&in); err != nil {
				ctx.RespondError("%v", err)
				return
			}
			s.mu.Lock()
			var out wireDoc
			if out.Found = in.ID < uint64(len(s.docs)); out.Found {
				out.Doc = s.docs[in.ID]
			}
			s.mu.Unlock()
			ctx.Respond(&out)
		},
		sonata.RPCCollectionSize: func(ctx *margo.Context) {
			var in wireColl
			if err := ctx.GetInput(&in); err != nil {
				ctx.RespondError("%v", err)
				return
			}
			s.mu.Lock()
			n := uint64(len(s.docs))
			s.mu.Unlock()
			ctx.Respond(&wireCount{N: n})
		},
	}
	for name, fn := range handlers {
		if err := srv.Register(name, fn); err != nil {
			return err
		}
	}
	return nil
}

// TestSonataAuditCatchesALossyStore plants providers that acknowledge
// every batch but drop, or swap, one document, and wants RunSonata's
// audit to refuse each run; an honest twin of them passes.
func TestSonataAuditCatchesALossyStore(t *testing.T) {
	// 48 records: fewer than the audit's sample, so every id is read.
	cfg := SonataConfig{Records: 48, BatchSize: 16, RecordSize: 128}
	for _, tc := range []struct {
		name  string
		fault func(docs [][]byte) [][]byte
		want  string // "" when the audit must pass
	}{
		{"honest", func(docs [][]byte) [][]byte { return docs }, ""},
		{"drops a document", func(docs [][]byte) [][]byte { return docs[:len(docs)-1] }, "holds 45 documents, stored 48"},
		{"swaps two documents", func(docs [][]byte) [][]byte {
			docs[0], docs[1] = docs[1], docs[0]
			return docs
		}, "read back wrong"},
	} {
		store := &lossyStore{fault: tc.fault}
		_, err := Execute(sonataScenario(cfg, store.register), "", "")
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: audit failed: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: RunSonata = %v, want an audit error holding %q", tc.name, err, tc.want)
		}
	}
}
