// Package bake reimplements BAKE, the Mochi microservice for storing and
// retrieving bulk object blobs (paper §III-A). Object data moves through
// Mercury's bulk interface — the target pulls from client memory on
// writes and pushes into it on reads — while only small descriptors ride
// in the RPC metadata, the access pattern the paper attributes to BAKE.
//
// Regions model NVM-backed extents: they are created with a fixed size,
// written at offsets, persisted (with a modeled flush cost), and read
// back. The provider registers its handlers on a Margo server instance;
// Client is the origin-side API.
package bake

import (
	"sync"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
)

// RPC names exported by the BAKE provider.
const (
	RPCCreate  = "bake_create_rpc"
	RPCWrite   = "bake_write_rpc"
	RPCPersist = "bake_persist_rpc"
	RPCRead    = "bake_read_rpc"
	RPCGetSize = "bake_get_size_rpc"
)

// RPCNames lists every BAKE RPC (for client registration).
func RPCNames() []string {
	return []string{RPCCreate, RPCWrite, RPCPersist, RPCRead, RPCGetSize}
}

// The provider's modeled storage costs.
const (
	// persistCostPerKB is the flush-to-NVM time bake_persist charges per
	// KiB of region data.
	persistCostPerKB = 2 * time.Microsecond
	// writeCostPerKB is the media write time per KiB.
	writeCostPerKB = time.Microsecond
)

// Provider is a BAKE target: a set of in-memory regions.
type Provider struct {
	mu      sync.Mutex
	regions map[uint64]*region
	nextID  uint64
}

type region struct {
	data      []byte
	persisted bool
}

// RegisterProvider installs a BAKE provider on a Margo server.
func RegisterProvider(inst *margo.Instance) (*Provider, error) {
	p := &Provider{regions: make(map[uint64]*region)}
	handlers := map[string]margo.HandlerFunc{
		RPCCreate:  p.handleCreate,
		RPCWrite:   p.handleWrite,
		RPCPersist: p.handlePersist,
		RPCRead:    p.handleRead,
		RPCGetSize: p.handleGetSize,
	}
	for name, fn := range handlers {
		if err := inst.Register(name, fn); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *Provider) region(id uint64) (*region, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.regions[id]
	return r, ok
}

// createArgs / sizeResp / writeArgs / readArgs are the wire types.

type createArgs struct{ Size uint64 }

func (a *createArgs) Proc(pr *mercury.Proc) error { return pr.Uint64(&a.Size) }

type regionResp struct{ RID uint64 }

func (a *regionResp) Proc(pr *mercury.Proc) error { return pr.Uint64(&a.RID) }

type writeArgs struct {
	RID       uint64
	RegionOff uint64
	Bulk      mercury.Bulk
	BulkOff   uint64
	Size      uint64
}

func (a *writeArgs) Proc(pr *mercury.Proc) error {
	pr.Uint64(&a.RID)
	pr.Uint64(&a.RegionOff)
	a.Bulk.Proc(pr)
	pr.Uint64(&a.BulkOff)
	pr.Uint64(&a.Size)
	return pr.Err()
}

type sizeResp struct{ Size uint64 }

func (a *sizeResp) Proc(pr *mercury.Proc) error { return pr.Uint64(&a.Size) }

// call is the pooled per-call record of every BAKE RPC, on either side:
// arguments and replies travel as mercury.Procable interfaces and would
// otherwise escape from the stack on each call.
type call struct {
	create createArgs
	region regionResp
	window writeArgs
	size   sizeResp
}

var calls mercury.Records[call]

func (p *Provider) handleCreate(ctx *margo.Context) {
	c := calls.Get()
	defer calls.Put(c)
	in := &c.create
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("bake: %v", err)
		return
	}
	p.mu.Lock()
	p.nextID++
	id := p.nextID
	p.regions[id] = &region{data: make([]byte, in.Size)}
	p.mu.Unlock()
	c.region.RID = id
	ctx.Respond(&c.region)
}

func (p *Provider) handleWrite(ctx *margo.Context) {
	c := calls.Get()
	defer calls.Put(c)
	in := &c.window
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("bake: %v", err)
		return
	}
	r, ok := p.region(in.RID)
	if !ok {
		ctx.RespondError("bake: unknown region %d", in.RID)
		return
	}
	if in.RegionOff+in.Size > uint64(len(r.data)) {
		ctx.RespondError("bake: write beyond region end")
		return
	}
	// Pull object data straight from client memory (one-sided).
	if err := ctx.BulkPull(in.Bulk, int(in.BulkOff), r.data[in.RegionOff:in.RegionOff+in.Size]); err != nil {
		ctx.RespondError("bake: bulk pull: %v", err)
		return
	}
	ctx.Compute(time.Duration(in.Size) * writeCostPerKB / 1024)
	ctx.Respond(mercury.Void{})
}

func (p *Provider) handlePersist(ctx *margo.Context) {
	c := calls.Get()
	defer calls.Put(c)
	in := &c.region
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("bake: %v", err)
		return
	}
	r, ok := p.region(in.RID)
	if !ok {
		ctx.RespondError("bake: unknown region %d", in.RID)
		return
	}
	ctx.Compute(time.Duration(len(r.data)) * persistCostPerKB / 1024)
	p.mu.Lock()
	r.persisted = true
	p.mu.Unlock()
	ctx.Respond(mercury.Void{})
}

func (p *Provider) handleRead(ctx *margo.Context) {
	c := calls.Get()
	defer calls.Put(c)
	in := &c.window // same shape: region window + client bulk window
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("bake: %v", err)
		return
	}
	r, ok := p.region(in.RID)
	if !ok {
		ctx.RespondError("bake: unknown region %d", in.RID)
		return
	}
	if in.RegionOff+in.Size > uint64(len(r.data)) {
		ctx.RespondError("bake: read beyond region end")
		return
	}
	if err := ctx.BulkPush(in.Bulk, int(in.BulkOff), r.data[in.RegionOff:in.RegionOff+in.Size]); err != nil {
		ctx.RespondError("bake: bulk push: %v", err)
		return
	}
	ctx.Respond(mercury.Void{})
}

func (p *Provider) handleGetSize(ctx *margo.Context) {
	c := calls.Get()
	defer calls.Put(c)
	in := &c.region
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("bake: %v", err)
		return
	}
	r, ok := p.region(in.RID)
	if !ok {
		ctx.RespondError("bake: unknown region %d", in.RID)
		return
	}
	c.size.Size = uint64(len(r.data))
	ctx.Respond(&c.size)
}

// Client is the origin-side BAKE API.
type Client struct {
	inst *margo.Instance
}

// NewClient wires BAKE RPCs into a Margo instance and returns a client.
func NewClient(inst *margo.Instance) (*Client, error) {
	if err := inst.RegisterClient(RPCNames()...); err != nil {
		return nil, err
	}
	return &Client{inst: inst}, nil
}

// Create allocates a region of the given size at the target.
func (c *Client) Create(self *abt.ULT, target string, size uint64) (uint64, error) {
	r := calls.Get()
	defer calls.Put(r)
	r.create.Size = size
	if err := c.inst.Forward(self, target, RPCCreate, &r.create, &r.region); err != nil {
		return 0, err
	}
	return r.region.RID, nil
}

// Write transfers data into the region at off via target-side bulk pull.
func (c *Client) Write(self *abt.ULT, target string, rid, off uint64, data []byte) error {
	bulk := c.inst.BulkCreate(data)
	defer c.inst.BulkFree(bulk)
	return c.WriteFrom(self, target, rid, off, bulk, uint64(len(data)))
}

// WriteFrom is Write from a memory window someone else exposed: a
// composing service hands its own client's bulk descriptor on, and BAKE
// pulls straight from that client.
func (c *Client) WriteFrom(self *abt.ULT, target string, rid, off uint64, bulk mercury.Bulk, size uint64) error {
	return c.transfer(self, target, RPCWrite, rid, off, bulk, size)
}

func (c *Client) transfer(self *abt.ULT, target, rpc string, rid, off uint64, bulk mercury.Bulk, size uint64) error {
	r := calls.Get()
	defer calls.Put(r)
	r.window = writeArgs{RID: rid, RegionOff: off, Bulk: bulk, Size: size}
	return c.inst.Forward(self, target, rpc, &r.window, nil)
}

// Persist flushes the region to stable storage.
func (c *Client) Persist(self *abt.ULT, target string, rid uint64) error {
	r := calls.Get()
	defer calls.Put(r)
	r.region.RID = rid
	return c.inst.Forward(self, target, RPCPersist, &r.region, nil)
}

// ReadInto fills size bytes of bulk from the region at off via
// target-side bulk push.
func (c *Client) ReadInto(self *abt.ULT, target string, rid, off uint64, bulk mercury.Bulk, size uint64) error {
	return c.transfer(self, target, RPCRead, rid, off, bulk, size)
}

// GetSize returns the region's allocated size.
func (c *Client) GetSize(self *abt.ULT, target string, rid uint64) (uint64, error) {
	r := calls.Get()
	defer calls.Put(r)
	r.region.RID = rid
	if err := c.inst.Forward(self, target, RPCGetSize, &r.region, &r.size); err != nil {
		return 0, err
	}
	return r.size.Size, nil
}
