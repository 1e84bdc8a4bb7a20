// Package mobject reimplements Mobject, the composed Mochi object store
// of the paper's §V-A: a distributed service exposing a RADOS-like
// write_op/read_op API. Each Mobject provider node hosts three
// colocated providers — the client-facing Mobject sequencer, a BAKE
// provider for object data, and an SDSKV provider for metadata (paper
// Figure 4). The sequencer translates every object operation into a
// chain of BAKE and SDSKV RPCs issued to its own node, so control always
// returns to the sequencer between steps and the distributed callpath
// profile shows mobject_*_op => {bake,sdskv}_*_rpc chains.
//
// One mobject_write_op decomposes into exactly 12 discrete microservice
// calls (3 BAKE data-path calls, 6 SDSKV metadata puts/gets, a version
// read-modify-write and an index scan), matching the request structure
// SYMBIOSYS discovers in the paper's Figure 5 trace; one mobject_read_op
// decomposes into 4 calls dominated by the omap extent listing, matching
// the dominant callpath of Figure 6.
package mobject

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/services/bake"
	"symbiosys/internal/services/sdskv"
)

// RPC names exported by the Mobject sequencer provider.
const (
	RPCWriteOp = "mobject_write_op"
	RPCReadOp  = "mobject_read_op"
)

// RPCNames lists the Mobject RPCs (for client registration).
func RPCNames() []string { return []string{RPCWriteOp, RPCReadOp} }

// Databases opened by the sequencer on its colocated SDSKV provider.
const (
	oidDB  = "mobject-oid"  // object name -> numeric oid
	omapDB = "mobject-omap" // per-object metadata: extents, size, version
)

// ProviderNode is one Mobject provider process: sequencer + BAKE +
// SDSKV, all registered on a single Margo server instance.
type ProviderNode struct {
	inst  *margo.Instance
	bakeP *bake.Provider
	kvP   *sdskv.Provider

	// Clients the sequencer uses for its nested calls (to itself).
	bakeC *bake.Client
	kvC   *sdskv.Client

	oidID  uint32
	omapID uint32
}

// RegisterProviderNode installs the three providers on inst and opens
// the sequencer's metadata databases on the given kv backend.
func RegisterProviderNode(inst *margo.Instance, backend string) (*ProviderNode, error) {
	n := &ProviderNode{inst: inst}
	var err error
	if n.bakeP, err = bake.RegisterProvider(inst); err != nil {
		return nil, err
	}
	// The omap listing cost models RADOS-style iteration over object
	// maps: each returned entry pays a scan+copy cost, which is what
	// makes mobject_read_op => sdskv_list_keyvals_rpc the dominant
	// callpath of the paper's Figure 6.
	if n.kvP, err = sdskv.RegisterProvider(inst, sdskv.Config{
		ListCostPerItem: 4 * time.Microsecond,
	}); err != nil {
		return nil, err
	}
	if n.bakeC, err = bake.NewClient(inst); err != nil {
		return nil, err
	}
	if n.kvC, err = sdskv.NewClient(inst); err != nil {
		return nil, err
	}
	if n.oidID, err = n.kvP.OpenLocal(oidDB, backend); err != nil {
		return nil, err
	}
	if n.omapID, err = n.kvP.OpenLocal(omapDB, backend); err != nil {
		return nil, err
	}
	if err := inst.Register(RPCWriteOp, n.handleWriteOp); err != nil {
		return nil, err
	}
	if err := inst.Register(RPCReadOp, n.handleReadOp); err != nil {
		return nil, err
	}
	return n, nil
}

// Wire types.

// The op arguments name the object as the client was given it, a
// string; the target decodes the name as a view of the request frame
// instead, valid until the handler returns, so naming the object costs
// neither side an allocation.
type writeOpArgs struct {
	Object string
	Bulk   mercury.Bulk // client memory window holding the object data
	Size   uint64
	name   []byte // Object as the target decodes it
}

func (a *writeOpArgs) Proc(pr *mercury.Proc) error {
	procName(pr, &a.Object, &a.name)
	a.Bulk.Proc(pr)
	pr.Uint64(&a.Size)
	return pr.Err()
}

type readOpArgs struct {
	Object string
	Bulk   mercury.Bulk // client memory window to push the data into
	Size   uint64
	name   []byte // Object as the target decodes it
}

func (a *readOpArgs) Proc(pr *mercury.Proc) error {
	procName(pr, &a.Object, &a.name)
	a.Bulk.Proc(pr)
	pr.Uint64(&a.Size)
	return pr.Err()
}

// procName encodes an object name from the string and decodes it into
// the view; the wire bytes are the same.
func procName(pr *mercury.Proc, object *string, name *[]byte) {
	if pr.Op() == mercury.OpEncode {
		pr.String(object)
	} else {
		pr.Bytes(name)
	}
}

type readOpResp struct{ Size uint64 }

func (a *readOpResp) Proc(pr *mercury.Proc) error { return pr.Uint64(&a.Size) }

// extentMeta is the omap value describing where an object's data lives.
type extentMeta struct {
	RID  uint64
	Size uint64
}

// The omap value is the two fields as fixed-width little-endian words,
// 16 bytes (what their mercury encoding has always been).
func (e extentMeta) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, e.RID)
	return binary.LittleEndian.AppendUint64(dst, e.Size)
}

func (e *extentMeta) parse(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("mobject: extent record of %d bytes", len(b))
	}
	e.RID, e.Size = binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
	return nil
}

// Per-call records: arguments and replies travel as mercury.Procable
// interfaces and would otherwise escape from the stack on each call.
var (
	writeOps mercury.Records[writeOpArgs]
	readOps  mercury.Records[readOpCall]
)

// listings recycles the Listing each op lists its omap entries into.
var listings = sync.Pool{New: func() any { return new(sdskv.Listing) }}

type readOpCall struct {
	in  readOpArgs
	out readOpResp
}

// omap key suffixes; a key is "omap/<object>" + suffix.
const (
	extentSuffix  = "/extent/0"
	sizeSuffix    = "/size"
	mtimeSuffix   = "/mtime"
	versionSuffix = "/version"
	prefixSuffix  = "/"
	// longestSuffix sizes the scratch buffer keys are built in.
	longestSuffix = len(extentSuffix)
)

// The rest of an op's scratch: room to format a number (or an extent
// record) in, and room for the values the op reads back (an oid, a size,
// the version marker).
const (
	numRoom = 24
	valRoom = 64
)

var mtimeValue = []byte("mtime")

// opMemory is one op's request memory, carved from the handler's
// scratch. The omap keys of the object are built in it one at a time:
// each is handed to an sdskv call that has copied or sent it by the time
// it returns, so the next may overwrite it — and so may the numbers
// formatted for Put and the values Get reads back.
type opMemory struct {
	key []byte // "omap/<object>", with room for the longest suffix
	num []byte // empty, with numRoom bytes of room
	val []byte // empty, with at least valRoom bytes of room
}

func newOpMemory(ctx *margo.Context, obj []byte) opMemory {
	keyRoom := len("omap/") + len(obj) + longestSuffix
	buf := ctx.Scratch(keyRoom + numRoom + valRoom)
	return opMemory{
		key: append(append(buf[:0:keyRoom], "omap/"...), obj...),
		num: buf[keyRoom : keyRoom : keyRoom+numRoom],
		val: buf[keyRoom+numRoom : keyRoom+numRoom],
	}
}

func (m opMemory) with(suffix string) []byte { return append(m.key, suffix...) }

// object returns the object name itself, the key of the oid index.
func (m opMemory) object() []byte { return m.key[len("omap/"):] }

// handleWriteOp services one RADOS-like write: the 12-step sequence the
// paper's trace study discovers. Step numbering is in the comments.
func (n *ProviderNode) handleWriteOp(ctx *margo.Context) {
	in := writeOps.Get()
	defer writeOps.Put(in)
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("mobject: %v", err)
		return
	}
	self := n.inst.Addr()
	mem := newOpMemory(ctx, in.name)

	// 1. sdskv_get_rpc: resolve the object's oid in the name index.
	if _, _, err := n.kvC.GetInto(ctx.Self, self, n.oidID, mem.object(), mem.val); err != nil {
		ctx.RespondError("mobject: oid lookup: %v", err)
		return
	}
	// The oid and, below, the extent and the size are formatted into the
	// same room, reused because Put copies what it is given.
	oid := strconv.AppendUint(mem.num, oidHash(in.name), 16)

	// 2. sdskv_put_rpc: create or refresh the name-index entry.
	if err := n.kvC.Put(ctx.Self, self, n.oidID, mem.object(), oid); err != nil {
		ctx.RespondError("mobject: oid put: %v", err)
		return
	}

	// 3. bake_create_rpc: allocate a region for the object data.
	rid, err := n.bakeC.Create(ctx.Self, self, in.Size)
	if err != nil {
		ctx.RespondError("mobject: bake create: %v", err)
		return
	}

	// 4. bake_write_rpc: the client's bulk descriptor is forwarded to the
	//    colocated BAKE provider, which pulls the data straight from
	//    client memory (RDMA between BAKE and the end-client, paper §V-A1).
	if err := n.bakeC.WriteFrom(ctx.Self, self, rid, 0, in.Bulk, in.Size); err != nil {
		ctx.RespondError("mobject: bake write: %v", err)
		return
	}

	// 5. bake_persist_rpc: flush the region.
	if err := n.bakeC.Persist(ctx.Self, self, rid); err != nil {
		ctx.RespondError("mobject: bake persist: %v", err)
		return
	}

	// 6. bake_get_size_rpc: confirm the stored extent length.
	storedSize, err := n.bakeC.GetSize(ctx.Self, self, rid)
	if err != nil {
		ctx.RespondError("mobject: bake get_size: %v", err)
		return
	}

	// 7. sdskv_put_rpc: record the extent mapping in the omap.
	ext := extentMeta{RID: rid, Size: storedSize}
	if err := n.kvC.Put(ctx.Self, self, n.omapID, mem.with(extentSuffix), ext.appendTo(mem.num)); err != nil {
		ctx.RespondError("mobject: omap extent put: %v", err)
		return
	}

	// 8. sdskv_put_rpc: record the object size.
	if err := n.kvC.Put(ctx.Self, self, n.omapID, mem.with(sizeSuffix),
		strconv.AppendUint(mem.num, storedSize, 10)); err != nil {
		ctx.RespondError("mobject: omap size put: %v", err)
		return
	}

	// 9. sdskv_put_rpc: record the modification time.
	if err := n.kvC.Put(ctx.Self, self, n.omapID, mem.with(mtimeSuffix), mtimeValue); err != nil {
		ctx.RespondError("mobject: omap mtime put: %v", err)
		return
	}

	// 10. sdskv_get_rpc: read the object version.
	verRaw, _, err := n.kvC.GetInto(ctx.Self, self, n.omapID, mem.with(versionSuffix), mem.val)
	if err != nil {
		ctx.RespondError("mobject: version get: %v", err)
		return
	}
	version := len(verRaw) + 1 // monotonically growing marker

	// 11. sdskv_put_rpc: bump the version. The marker is zeros, in the
	//     room the old one was read into.
	marker := slices.Grow(mem.val, version)[:version]
	clear(marker)
	if err := n.kvC.Put(ctx.Self, self, n.omapID, mem.with(versionSuffix), marker); err != nil {
		ctx.RespondError("mobject: version put: %v", err)
		return
	}

	// 12. sdskv_list_keyvals_rpc: scan the object's omap entries to
	//     refresh the sequencer's view (the index-verification step).
	l := listings.Get().(*sdskv.Listing)
	defer listings.Put(l)
	if err := n.kvC.ListKeyvals(ctx.Self, self, n.omapID, mem.with(prefixSuffix), 16, l); err != nil {
		ctx.RespondError("mobject: omap scan: %v", err)
		return
	}

	ctx.Respond(mercury.Void{})
}

// handleReadOp services one RADOS-like read: 4 discrete calls with the
// omap listing dominant (paper Figure 6).
func (n *ProviderNode) handleReadOp(ctx *margo.Context) {
	call := readOps.Get()
	defer readOps.Put(call)
	in := &call.in
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("mobject: %v", err)
		return
	}
	self := n.inst.Addr()
	mem := newOpMemory(ctx, in.name)

	// 1. sdskv_get_rpc: resolve the oid.
	if _, found, err := n.kvC.GetInto(ctx.Self, self, n.oidID, mem.object(), mem.val); err != nil {
		ctx.RespondError("mobject: oid lookup: %v", err)
		return
	} else if !found {
		ctx.RespondError("mobject: no such object %q", in.name)
		return
	}

	// 2. sdskv_list_keyvals_rpc: list the object's omap entries to find
	//    its extents — the dominant step of mobject_read_op.
	l := listings.Get().(*sdskv.Listing)
	defer listings.Put(l)
	if err := n.kvC.ListKeyvals(ctx.Self, self, n.omapID, mem.with(prefixSuffix), 64, l); err != nil {
		ctx.RespondError("mobject: omap list: %v", err)
		return
	}
	var ext extentMeta
	foundExt := false
	want := mem.with(extentSuffix)
	for i, k := range l.Keys {
		if bytes.Equal(k, want) {
			if err := ext.parse(l.Values[i]); err != nil {
				ctx.RespondError("mobject: extent decode: %v", err)
				return
			}
			foundExt = true
			break
		}
	}
	if !foundExt {
		ctx.RespondError("mobject: object %q has no extents", in.name)
		return
	}

	// 3. bake_read_rpc: BAKE pushes the data into client memory.
	size := ext.Size
	if in.Size < size {
		size = in.Size
	}
	if err := n.bakeC.ReadInto(ctx.Self, self, ext.RID, 0, in.Bulk, size); err != nil {
		ctx.RespondError("mobject: bake read: %v", err)
		return
	}

	// 4. sdskv_get_rpc: fetch the object size for the reply.
	if _, _, err := n.kvC.GetInto(ctx.Self, self, n.omapID, mem.with(sizeSuffix), mem.val); err != nil {
		ctx.RespondError("mobject: size get: %v", err)
		return
	}

	call.out.Size = size
	ctx.Respond(&call.out)
}

func oidHash(name []byte) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Client is the origin-side Mobject API (the ior benchmark links this).
type Client struct {
	inst *margo.Instance
}

// NewClient wires the Mobject RPCs into a Margo instance.
func NewClient(inst *margo.Instance) (*Client, error) {
	if err := inst.RegisterClient(RPCNames()...); err != nil {
		return nil, err
	}
	return &Client{inst: inst}, nil
}

// WriteOp stores an object: data is exposed for BAKE's one-sided pull.
func (c *Client) WriteOp(self *abt.ULT, target, object string, data []byte) error {
	bulk := c.inst.BulkCreate(data)
	defer c.inst.BulkFree(bulk)
	args := writeOps.Get()
	defer writeOps.Put(args)
	*args = writeOpArgs{Object: object, Bulk: bulk, Size: uint64(len(data))}
	return c.inst.Forward(self, target, RPCWriteOp, args, nil)
}

// ReadOp reads an object into buf, returning the bytes filled.
func (c *Client) ReadOp(self *abt.ULT, target, object string, buf []byte) (uint64, error) {
	bulk := c.inst.BulkCreate(buf)
	defer c.inst.BulkFree(bulk)
	call := readOps.Get()
	defer readOps.Put(call)
	call.in = readOpArgs{Object: object, Bulk: bulk, Size: uint64(len(buf))}
	if err := c.inst.Forward(self, target, RPCReadOp, &call.in, &call.out); err != nil {
		return 0, err
	}
	return call.out.Size, nil
}
