// Package sonata reimplements Sonata, the Mochi microservice for
// remotely storing JSON documents (paper §V-B). Its UnQLite engine is
// substituted by an in-memory collection store; the paper's experiment
// only stores, so there is no query engine.
//
// Crucially for the paper's Figure 7 experiment, sonata_store_multi_json
// transfers the document array as RPC *metadata*, not as a bulk region:
// when a batch exceeds Mercury's eager buffer the remainder moves via an
// internal RDMA transfer, and deserializing the large input accounts for
// a significant share of the target-side execution time.
package sonata

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
)

// RPC names exported by the Sonata provider.
const (
	RPCCreateCollection = "sonata_create_collection_rpc"
	RPCStoreMultiJSON   = "sonata_store_multi_json_rpc"
	RPCFetch            = "sonata_fetch_rpc"
	RPCCollectionSize   = "sonata_collection_size_rpc"
)

// RPCNames lists every Sonata RPC (for client registration).
func RPCNames() []string {
	return []string{RPCCreateCollection, RPCStoreMultiJSON, RPCFetch, RPCCollectionSize}
}

// Config models document-store costs.
type Config struct {
	// StoreCostPerDoc is the modeled UnQLite insert time per document.
	// Default 2µs.
	StoreCostPerDoc time.Duration
}

func (c *Config) fillDefaults() {
	if c.StoreCostPerDoc <= 0 {
		c.StoreCostPerDoc = 2 * time.Microsecond
	}
}

// Provider is a Sonata target hosting named collections.
type Provider struct {
	cfg Config

	mu    sync.Mutex
	colls map[string]*collection
}

type collection struct {
	// raw documents in insertion order; ids are indices.
	docs  [][]byte
	wlock *abt.Mutex
}

// RegisterProvider installs a Sonata provider on a Margo server.
func RegisterProvider(inst *margo.Instance, cfg Config) (*Provider, error) {
	cfg.fillDefaults()
	p := &Provider{cfg: cfg, colls: make(map[string]*collection)}
	handlers := map[string]margo.HandlerFunc{
		RPCCreateCollection: p.handleCreate,
		RPCStoreMultiJSON:   p.handleStoreMulti,
		RPCFetch:            p.handleFetch,
		RPCCollectionSize:   p.handleSize,
	}
	for name, fn := range handlers {
		if err := inst.Register(name, fn); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *Provider) collection(name string) (*collection, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.colls[name]
	return c, ok
}

// Wire types.

type collArgs struct{ Name string }

func (a *collArgs) Proc(pr *mercury.Proc) error { return pr.String(&a.Name) }

type storeMultiArgs struct {
	Coll string
	Docs [][]byte // JSON documents as RPC metadata (deliberately)
}

// Proc reconstructs every document object on the decode side, as
// Mercury proc callbacks do for the serialized objects of real Mochi
// services, and refuses a batch holding a record that is not one. The
// cost is therefore charged to input_deserialization_time, the quantity
// the paper's Figure 7 examines.
func (a *storeMultiArgs) Proc(pr *mercury.Proc) error {
	pr.String(&a.Coll)
	pr.BytesSlice(&a.Docs)
	if pr.Op() == mercury.OpDecode && pr.Err() == nil {
		for i, d := range a.Docs {
			var obj map[string]any
			if err := json.Unmarshal(d, &obj); err != nil {
				return fmt.Errorf("sonata: record %d: %w", i, err)
			}
		}
	}
	return pr.Err()
}

type storeMultiResp struct{ FirstID uint64 }

func (a *storeMultiResp) Proc(pr *mercury.Proc) error { return pr.Uint64(&a.FirstID) }

type fetchArgs struct {
	Coll string
	ID   uint64
}

func (a *fetchArgs) Proc(pr *mercury.Proc) error {
	pr.String(&a.Coll)
	pr.Uint64(&a.ID)
	return pr.Err()
}

type fetchResp struct {
	Found bool
	Doc   []byte
}

// Proc encodes the stored document as it is, and decodes a copy of it:
// the response frame is recycled before Forward returns.
func (a *fetchResp) Proc(pr *mercury.Proc) error {
	pr.Bool(&a.Found)
	if pr.Op() == mercury.OpEncode {
		return pr.Bytes(&a.Doc)
	}
	var doc []byte
	if err := pr.Bytes(&doc); err != nil {
		return err
	}
	a.Doc = append([]byte(nil), doc...)
	return nil
}

type sizeResp struct{ N uint64 }

func (a *sizeResp) Proc(pr *mercury.Proc) error { return pr.Uint64(&a.N) }

// Handlers.

func (p *Provider) handleCreate(ctx *margo.Context) {
	var in collArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("sonata: %v", err)
		return
	}
	p.mu.Lock()
	if _, dup := p.colls[in.Name]; dup {
		p.mu.Unlock()
		ctx.RespondError("sonata: collection %q exists", in.Name)
		return
	}
	p.colls[in.Name] = &collection{wlock: abt.NewMutex()}
	p.mu.Unlock()
	ctx.Respond(mercury.Void{})
}

func (p *Provider) handleStoreMulti(ctx *margo.Context) {
	var in storeMultiArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("sonata: %v", err)
		return
	}
	c, ok := p.collection(in.Coll)
	if !ok {
		ctx.RespondError("sonata: unknown collection %q", in.Coll)
		return
	}
	// The documents are views of the request frame, which is recycled
	// when the handler returns: the batch is copied once into a slab the
	// collection owns.
	size := 0
	for _, d := range in.Docs {
		size += len(d)
	}
	slab := make([]byte, 0, size)
	var first uint64
	c.wlock.Lock(ctx.Self)
	first = uint64(len(c.docs))
	for _, d := range in.Docs {
		off := len(slab)
		slab = append(slab, d...)
		c.docs = append(c.docs, slab[off:len(slab):len(slab)])
	}
	c.wlock.Unlock()
	ctx.Compute(time.Duration(len(in.Docs)) * p.cfg.StoreCostPerDoc)
	ctx.Respond(&storeMultiResp{FirstID: first})
}

func (p *Provider) handleFetch(ctx *margo.Context) {
	var in fetchArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("sonata: %v", err)
		return
	}
	c, ok := p.collection(in.Coll)
	if !ok {
		ctx.RespondError("sonata: unknown collection %q", in.Coll)
		return
	}
	c.wlock.Lock(ctx.Self)
	var doc []byte
	found := in.ID < uint64(len(c.docs))
	if found {
		doc = c.docs[in.ID]
	}
	c.wlock.Unlock()
	ctx.Respond(&fetchResp{Found: found, Doc: doc})
}

func (p *Provider) handleSize(ctx *margo.Context) {
	var in collArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("sonata: %v", err)
		return
	}
	c, ok := p.collection(in.Name)
	if !ok {
		ctx.RespondError("sonata: unknown collection %q", in.Name)
		return
	}
	c.wlock.Lock(ctx.Self)
	n := uint64(len(c.docs))
	c.wlock.Unlock()
	ctx.Respond(&sizeResp{N: n})
}

// Client is the origin-side Sonata API.
type Client struct {
	inst *margo.Instance
}

// NewClient wires Sonata RPCs into a Margo instance.
func NewClient(inst *margo.Instance) (*Client, error) {
	if err := inst.RegisterClient(RPCNames()...); err != nil {
		return nil, err
	}
	return &Client{inst: inst}, nil
}

// CreateCollection creates a named collection at the target.
func (c *Client) CreateCollection(self *abt.ULT, target, name string) error {
	return c.inst.Forward(self, target, RPCCreateCollection, &collArgs{Name: name}, nil)
}

// StoreMultiJSON stores a batch of JSON records in one RPC, carrying the
// records as request metadata (paper §V-B2). It returns the id of the
// first stored record; subsequent records follow consecutively.
func (c *Client) StoreMultiJSON(self *abt.ULT, target, coll string, docs [][]byte) (uint64, error) {
	var out storeMultiResp
	err := c.inst.Forward(self, target, RPCStoreMultiJSON, &storeMultiArgs{Coll: coll, Docs: docs}, &out)
	if err != nil {
		return 0, err
	}
	return out.FirstID, nil
}

// Fetch retrieves one document by id.
func (c *Client) Fetch(self *abt.ULT, target, coll string, id uint64) ([]byte, bool, error) {
	var out fetchResp
	if err := c.inst.Forward(self, target, RPCFetch, &fetchArgs{Coll: coll, ID: id}, &out); err != nil {
		return nil, false, err
	}
	return out.Doc, out.Found, nil
}

// CollectionSize reports the number of stored documents.
func (c *Client) CollectionSize(self *abt.ULT, target, coll string) (uint64, error) {
	var out sizeResp
	if err := c.inst.Forward(self, target, RPCCollectionSize, &collArgs{Name: coll}, &out); err != nil {
		return 0, err
	}
	return out.N, nil
}

// GenerateRecord builds a synthetic particle-physics-flavoured JSON
// record of roughly the requested size, used by the Figure 7 benchmark
// and the examples.
func GenerateRecord(id int, approxBytes int) []byte {
	pad := approxBytes - 120
	if pad < 0 {
		pad = 0
	}
	padding := make([]byte, pad)
	for i := range padding {
		padding[i] = 'a' + byte((id+i)%26)
	}
	doc := map[string]any{
		"id":       id,
		"energy":   float64(id%1000) / 10.0,
		"detector": map[string]any{"name": fmt.Sprintf("det-%d", id%4), "layer": id % 7},
		"valid":    id%2 == 0,
		"payload":  string(padding),
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return b
}
