package mercury

import (
	"fmt"
	"sync"

	"symbiosys/internal/na"
)

// Bulk describes a registered memory region that can be transferred
// one-sidedly between processes, mirroring Mercury's bulk interface.
// Bulk handles are serializable and typically travel inside RPC inputs
// so the target can pull (or push) the data.
type Bulk struct {
	Mem na.MemHandle
}

// Proc implements Procable so bulk descriptors can ride in RPC args.
func (b *Bulk) Proc(p *Proc) error {
	p.addr(&b.Mem.Addr)
	p.Uint64(&b.Mem.ID)
	p.Int(&b.Mem.Len)
	return p.Err()
}

// Size returns the registered region length in bytes.
func (b *Bulk) Size() int { return b.Mem.Len }

// BulkCreate registers buf for one-sided transfer and returns its
// descriptor. Free it with BulkFree when the transfer window closes.
func (c *Class) BulkCreate(buf []byte) Bulk {
	return Bulk{Mem: c.ep.RegisterMemory(buf)}
}

// BulkFree revokes a descriptor created by BulkCreate.
func (c *Class) BulkFree(b Bulk) {
	c.ep.DeregisterMemory(b.Mem)
}

// BulkCallback completes a bulk transfer. arg is the value the caller
// passed with the operation, so a package-level function can recover
// its per-request record without a closure.
type BulkCallback func(arg any, err error)

// bulkOp is the pooled record of one bulk transfer in flight; it is the
// context of the transfer's RDMA operation.
type bulkOp struct {
	cb  BulkCallback
	arg any
}

var bulkOpPool = sync.Pool{New: func() any { return new(bulkOp) }}

// finish recycles the record, then runs the caller's callback.
func (op *bulkOp) finish(err error) {
	cb, arg := op.cb, op.arg
	*op = bulkOp{}
	bulkOpPool.Put(op)
	cb(arg, err)
}

// BulkPull reads remote[off:off+len(local)] into local. cb(arg, err)
// fires from Trigger when the transfer completes. This is the path a
// target uses to fetch key-value content after an sdskv_put_packed
// request (paper §V-C).
func (c *Class) BulkPull(remote Bulk, off int, local []byte, cb BulkCallback, arg any) error {
	return c.bulkOp(remote, off, local, cb, arg, false)
}

// BulkPush writes local into remote[off:off+len(local)].
func (c *Class) BulkPush(remote Bulk, off int, local []byte, cb BulkCallback, arg any) error {
	return c.bulkOp(remote, off, local, cb, arg, true)
}

func (c *Class) bulkOp(remote Bulk, off int, local []byte, cb BulkCallback, arg any, push bool) error {
	if cb == nil {
		return fmt.Errorf("mercury: bulk transfer requires a callback")
	}
	c.bulkBytes.Add(uint64(len(local)))
	op := bulkOpPool.Get().(*bulkOp)
	op.cb, op.arg = cb, arg
	if push {
		c.ep.Put(remote.Mem, off, local, op)
	} else {
		c.ep.Get(remote.Mem, off, local, op)
	}
	return nil
}
