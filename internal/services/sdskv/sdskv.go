// Package sdskv reimplements SDSKV, the Mochi microservice exposing
// RPC-based access to multiple key-value databases (paper §III-A, §V-C).
// A provider hosts any number of named databases, each on one of the kv
// backends; clients address databases by id. Writes to backends that do
// not support parallel insertion (the "map" backend of the paper) are
// serialized through a ULT mutex per database, so contention surfaces as
// blocked ULTs in the Argobots pool — exactly the saturation signature
// SYMBIOSYS samples in the paper's Figure 10.
//
// sdskv_put_packed mirrors the HEPnOS hot path: the client packs a batch
// of key-value pairs into one buffer, sends only its bulk descriptor,
// and the target pulls the content one-sidedly before inserting.
//
// A provider can also be one node of an elastic store (elastic.go): its
// one database holds the keys a rendezvous ring over the group's view
// assigns it, and a Router (router.go) sends each put and get to the
// key's owner.
package sdskv

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/kv"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
)

// RPC names exported by the SDSKV provider.
const (
	RPCPut         = "sdskv_put_rpc"
	RPCGet         = "sdskv_get_rpc"
	RPCPutPacked   = "sdskv_put_packed_rpc"
	RPCListKeyvals = "sdskv_list_keyvals_rpc"
)

// RPCNames lists every SDSKV RPC (for client registration).
func RPCNames() []string {
	return []string{RPCPut, RPCGet, RPCPutPacked, RPCListKeyvals}
}

// Config models backend insertion costs.
type Config struct {
	// PutCostPerKey is the modeled backend insert time per key-value
	// pair. It is charged while holding the database write lock on
	// serial backends, which is what makes a flood of small puts to the
	// same database serialize (paper §V-C3). Default 4µs.
	PutCostPerKey time.Duration
	// GetCostPerKey is the modeled lookup time. Default 1µs.
	GetCostPerKey time.Duration
	// ListCostPerItem is the modeled per-returned-item scan cost.
	// Default 1µs.
	ListCostPerItem time.Duration
}

func (c *Config) fillDefaults() {
	if c.PutCostPerKey <= 0 {
		c.PutCostPerKey = 4 * time.Microsecond
	}
	if c.GetCostPerKey <= 0 {
		c.GetCostPerKey = time.Microsecond
	}
	if c.ListCostPerItem <= 0 {
		c.ListCostPerItem = time.Microsecond
	}
}

// Provider is an SDSKV target hosting multiple databases.
type Provider struct {
	cfg Config

	mu     sync.Mutex
	dbs    map[uint32]*database
	byName map[string]uint32
	nextID uint32

	// elastic is set when the provider is an elastic node: puts and gets
	// then follow the node's ownership rules. Nil for a plain provider.
	elastic *Node
}

type database struct {
	db kv.DB
	// wlock serializes writers on backends without parallel insertion;
	// nil when the backend supports concurrent writes.
	wlock *abt.Mutex
}

// RegisterProvider installs an SDSKV provider on a Margo server.
func RegisterProvider(inst *margo.Instance, cfg Config) (*Provider, error) {
	cfg.fillDefaults()
	p := &Provider{
		cfg:    cfg,
		dbs:    make(map[uint32]*database),
		byName: make(map[string]uint32),
	}
	handlers := map[string]margo.HandlerFunc{
		RPCPut:         p.handlePut,
		RPCGet:         p.handleGet,
		RPCPutPacked:   p.handlePutPacked,
		RPCListKeyvals: p.handleList,
	}
	for name, fn := range handlers {
		if err := inst.Register(name, fn); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// OpenLocal creates a database directly on the provider (server setup
// path, avoiding an RPC for the provider's own initialization).
func (p *Provider) OpenLocal(name, backend string) (uint32, error) {
	db, err := kv.Open(backend, name)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if id, dup := p.byName[name]; dup {
		db.Close()
		return id, fmt.Errorf("sdskv: database %q already open", name)
	}
	p.nextID++
	id := p.nextID
	d := &database{db: db}
	if !db.ConcurrentWrites() {
		d.wlock = abt.NewMutex()
	}
	p.dbs[id] = d
	p.byName[name] = id
	return id, nil
}

// LocalLength reports the pair count of a database without an RPC
// (server-side validation path).
func (p *Provider) LocalLength(id uint32) (int, error) {
	d, ok := p.database(id)
	if !ok {
		return 0, fmt.Errorf("sdskv: unknown database %d", id)
	}
	return d.db.Len(), nil
}

func (p *Provider) database(id uint32) (*database, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.dbs[id]
	return d, ok
}

// Wire types.

type putArgs struct {
	DBID  uint32
	Key   []byte
	Value []byte
}

func (a *putArgs) Proc(pr *mercury.Proc) error {
	pr.Uint32(&a.DBID)
	pr.Bytes(&a.Key)
	pr.Bytes(&a.Value)
	return pr.Err()
}

type getArgs struct {
	DBID uint32
	Key  []byte
}

func (a *getArgs) Proc(pr *mercury.Proc) error {
	pr.Uint32(&a.DBID)
	pr.Bytes(&a.Key)
	return pr.Err()
}

// getResp is a Get's reply. The provider encodes Value from request
// memory. The origin copies the decoded value out of the response frame,
// which is recycled before Forward returns: it appends it to Value, the
// caller's destination, or, for a member of a GetMulti call, to the
// call's shared buffer.
type getResp struct {
	Found bool
	Value []byte
	multi *multiValues
}

func (a *getResp) Proc(pr *mercury.Proc) error {
	pr.Bool(&a.Found)
	if pr.Op() == mercury.OpEncode {
		pr.Bytes(&a.Value)
		return pr.Err()
	}
	var v []byte
	if err := pr.Bytes(&v); err != nil {
		return err
	}
	if a.multi != nil {
		a.Value = a.multi.add(v)
	} else {
		a.Value = append(a.Value, v...)
	}
	return nil
}

// multiValues is where the values of one GetMulti call land: one buffer
// for all of them, sized at the first value for every value still due
// (the values of one call are usually alike). Members of one call can
// complete in different flights, each fanned out by whatever runs its
// completion, so appends take the lock. A value that does not fit starts
// a new buffer; the values before it keep the old one.
type multiValues struct {
	mu  sync.Mutex
	buf []byte
	due int // values not decoded yet
}

func (m *multiValues) add(v []byte) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cap(m.buf)-len(m.buf) < len(v) {
		m.buf = make([]byte, 0, len(v)*max(m.due, 1))
	}
	m.due--
	return carve(&m.buf, v)
}

// carve appends a copy of src to *buf and returns the copy
// capacity-clipped, so values sharing a buffer cannot grow into each
// other.
func carve(buf *[]byte, src []byte) []byte {
	off := len(*buf)
	*buf = append(*buf, src...)
	return (*buf)[off:len(*buf):len(*buf)]
}

type putPackedArgs struct {
	DBID    uint32
	NumKeys uint32
	Bulk    mercury.Bulk
	Size    uint64
}

func (a *putPackedArgs) Proc(pr *mercury.Proc) error {
	pr.Uint32(&a.DBID)
	pr.Uint32(&a.NumKeys)
	a.Bulk.Proc(pr)
	pr.Uint64(&a.Size)
	return pr.Err()
}

type listArgs struct {
	DBID     uint32
	StartKey []byte
	MaxKeys  uint32
}

func (a *listArgs) Proc(pr *mercury.Proc) error {
	pr.Uint32(&a.DBID)
	pr.Bytes(&a.StartKey)
	pr.Uint32(&a.MaxKeys)
	return pr.Err()
}

// listResp is a listing as the origin decodes it: into the caller's
// Listing, whose buffer the keys and values are copied to out of the
// response frame, grown once. On the wire it is the keys, then the
// values, as two byte-slice arrays of one length.
type listResp struct{ l *Listing }

func (a *listResp) Proc(pr *mercury.Proc) error {
	l := a.l
	pr.BytesSlice(&l.Keys)
	pr.BytesSlice(&l.Values)
	if pr.Op() == mercury.OpEncode {
		return pr.Err()
	}
	err := pr.Err()
	if err == nil && len(l.Keys) != len(l.Values) {
		err = fmt.Errorf("sdskv: a listing of %d keys and %d values", len(l.Keys), len(l.Values))
	}
	if err != nil {
		l.reset()
		return err
	}
	size := 0
	for i := range l.Keys {
		size += len(l.Keys[i]) + len(l.Values[i])
	}
	l.buf = slices.Grow(l.buf[:0], size)
	for i := range l.Keys {
		l.Keys[i], l.Values[i] = carve(&l.buf, l.Keys[i]), carve(&l.buf, l.Values[i])
	}
	return nil
}

// listReply is listResp as the provider sends it: the same bytes,
// encoded straight from the pairs the backend listed instead of from two
// slices rebuilt out of them.
type listReply []kv.Pair

func (a *listReply) Proc(pr *mercury.Proc) error {
	if pr.Op() != mercury.OpEncode {
		return fmt.Errorf("sdskv: a list reply is decoded as a listResp")
	}
	n := uint32(len(*a))
	pr.Uint32(&n)
	for i := range *a {
		pr.Bytes(&(*a)[i].Key)
	}
	pr.Uint32(&n)
	for i := range *a {
		pr.Bytes(&(*a)[i].Value)
	}
	return pr.Err()
}

// Frame is a put_packed payload as the target pulls it: a pair count,
// then each pair as (key length, key, value length, value), count and
// lengths little-endian uint32s, in a pooled mercury arena. The zero
// value is empty; Release recycles the arena once the frame is shipped.
type Frame struct {
	arena *[]byte
	buf   []byte
	n     uint32
}

// Expect readies an empty frame for about n bytes of pairs: it takes an
// arena from the pool likelier to hold them, if that pool has one, and
// allocates nothing, so a frame that never fills costs what it holds.
func (f *Frame) Expect(n int) {
	if f.arena == nil {
		if a := mercury.ReuseArena(4 + n); a != nil {
			f.arena, f.buf = a, append(*a, 0, 0, 0, 0)
		}
	}
}

// grow makes room for n more bytes of pairs.
func (f *Frame) grow(n int) {
	if f.arena == nil {
		f.arena = mercury.GetArena(4 + n)
		f.buf = append(*f.arena, 0, 0, 0, 0)
	}
	f.buf = slices.Grow(f.buf, n)
}

// Add appends a copy of one pair.
func (f *Frame) Add(key, value []byte) {
	f.grow(8 + len(key) + len(value))
	f.buf = append(binary.LittleEndian.AppendUint32(f.buf, uint32(len(key))), key...)
	f.buf = append(binary.LittleEndian.AppendUint32(f.buf, uint32(len(value))), value...)
	f.n++
}

// Len reports how many pairs f holds.
func (f *Frame) Len() int { return int(f.n) }

// Release empties f and recycles its arena.
func (f *Frame) Release() {
	if f.arena != nil {
		mercury.PutArena(f.arena, f.buf)
	}
	*f = Frame{}
}

// bytes returns the frame's wire form, its count patched in.
func (f *Frame) bytes() []byte {
	f.grow(0)
	binary.LittleEndian.PutUint32(f.buf, f.n)
	return f.buf
}

// packedBatch is a Frame as the target decodes it, into views.
type packedBatch struct {
	Keys   [][]byte
	Values [][]byte
}

func (b *packedBatch) Proc(pr *mercury.Proc) error {
	var n uint32
	if pr.Op() == mercury.OpEncode {
		return fmt.Errorf("sdskv: a packed batch is encoded as a Frame")
	} else if pr.Uint32(&n); int(n) > pr.Remaining()/8 { // a pair holds two lengths
		return fmt.Errorf("sdskv: %d pairs in %d bytes", n, pr.Remaining())
	}
	b.Keys, b.Values = slices.Grow(b.Keys[:0], int(n))[:n], slices.Grow(b.Values[:0], int(n))[:n]
	for i := range b.Keys {
		pr.Bytes(&b.Keys[i])
		pr.Bytes(&b.Values[i])
	}
	return pr.Err()
}

// Per-call records. Arguments and replies travel as mercury.Procable
// interfaces, so each call's live in a pooled record instead of escaping
// from the stack: the client and the handler of an RPC draw from the
// same pool, each using the half it needs.
type (
	getCall struct {
		in  getArgs
		out getResp
	}
	listCall struct {
		in    listArgs
		out   listResp
		reply listReply
	}
	packedCall struct {
		args  migratePushArgs // a put_packed sends args.putPackedArgs
		frame Frame
	}
)

var (
	putCalls    mercury.Records[putArgs]
	getCalls    mercury.Records[getCall]
	listCalls   mercury.Records[listCall]
	packedCalls mercury.Records[packedCall]
)

// listHeaders recycles the pair-header arrays the provider lists into,
// with their capacity.
var listHeaders = sync.Pool{New: func() any { return new([]kv.Pair) }}

// unpackedBatches recycles the target's decoded batches with their
// Keys/Values header arrays, which Proc decodes into when they are large
// enough: a thousand-pair put_packed allocates no headers.
var unpackedBatches = sync.Pool{New: func() any { return new(packedBatch) }}

// release drops the batch's views, keeps its capacity, and recycles it.
func (b *packedBatch) release() {
	clear(b.Keys)
	clear(b.Values)
	b.Keys, b.Values = b.Keys[:0], b.Values[:0]
	unpackedBatches.Put(b)
}

// Handlers.

// withWriteLock runs fn with the database's write serialization held
// (when the backend needs it), making backend contention visible as
// blocked ULTs.
func (d *database) withWriteLock(self *abt.ULT, fn func()) {
	if d.wlock != nil {
		d.wlock.Lock(self)
		defer d.wlock.Unlock()
	}
	fn()
}

func (p *Provider) handlePut(ctx *margo.Context) {
	in := putCalls.Get()
	defer putCalls.Put(in)
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("sdskv: %v", err)
		return
	}
	d, ok := p.database(in.DBID)
	if !ok {
		ctx.RespondError("sdskv: unknown database %d", in.DBID)
		return
	}
	var err error
	if p.elastic != nil {
		err = p.elastic.put(ctx, d, in)
	} else {
		d.withWriteLock(ctx.Self, func() {
			ctx.Compute(p.cfg.PutCostPerKey)
			err = d.db.Put(in.Key, in.Value)
		})
	}
	if err != nil {
		ctx.RespondError("sdskv: put: %v", err)
		return
	}
	ctx.Respond(mercury.Void{})
}

func (p *Provider) handleGet(ctx *margo.Context) { p.get(ctx, p.elastic) }

// get serves a get from the database the request names. A miss at an
// elastic node n is then settled by n's ownership rules; n is nil for a
// plain provider, and for a node's peer get, which stays local so that
// a read-through cannot recurse between nodes whose rings disagree.
func (p *Provider) get(ctx *margo.Context, n *Node) {
	call := getCalls.Get()
	defer getCalls.Put(call)
	in := &call.in
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("sdskv: %v", err)
		return
	}
	d, ok := p.database(in.DBID)
	if !ok {
		ctx.RespondError("sdskv: unknown database %d", in.DBID)
		return
	}
	ctx.Compute(p.cfg.GetCostPerKey)
	// The value is copied out of the store into the request's scratch,
	// which Respond has encoded by the time it returns.
	v, found, err := d.db.AppendGet(ctx.Scratch(0), in.Key)
	if err != nil {
		ctx.RespondError("sdskv: get: %v", err)
		return
	}
	call.out = getResp{Found: found, Value: v}
	if !found && n != nil {
		if err := n.readThrough(ctx, in.Key, &call.out); err != nil {
			ctx.RespondError("sdskv: get: %v", err)
			return
		}
	}
	ctx.Respond(&call.out)
}

// probeAbove is the largest pull a target sizes its scratch for on the
// strength of the request alone.
const probeAbove = 1 << 20

// pullPacked pulls and decodes the batch a put_packed or migrate push
// describes, into views of the request's scratch buffer; release the
// batch once its pairs are stored. Size, NumKeys and the region's length
// all come off the wire. The batch must hold its count (each pair costs
// at least its two 4-byte length prefixes) and fit the length the
// descriptor claims, and a pull over probeAbove first reads its last
// byte, so the fabric, which knows the region's real length, refuses it
// before the scratch is sized by it.
func pullPacked(ctx *margo.Context, in *putPackedArgs) (*packedBatch, error) {
	if in.Size > uint64(max(in.Bulk.Size(), 0)) || uint64(in.NumKeys) > in.Size/8 {
		return nil, fmt.Errorf("%d keys in %d bytes do not fit their %d-byte bulk region", in.NumKeys, in.Size, in.Bulk.Size())
	}
	if in.Size > probeAbove {
		if err := ctx.BulkPull(in.Bulk, int(in.Size)-1, ctx.Scratch(1)); err != nil {
			return nil, fmt.Errorf("a batch of %d bytes: %v", in.Size, err)
		}
	}
	// Pull the packed key-value content from the sender's memory (the
	// bulk transfer of Figure 2's execution phase).
	buf := ctx.Scratch(int(in.Size))
	if err := ctx.BulkPull(in.Bulk, 0, buf); err != nil {
		return nil, fmt.Errorf("bulk pull: %v", err)
	}
	batch := unpackedBatches.Get().(*packedBatch)
	err := mercury.Decode(buf, batch)
	if err == nil && uint32(len(batch.Keys)) != in.NumKeys {
		err = fmt.Errorf("packed batch shape mismatch")
	}
	if err != nil {
		batch.release()
		return nil, fmt.Errorf("unpack: %v", err)
	}
	return batch, nil
}

func (p *Provider) handlePutPacked(ctx *margo.Context) {
	call := packedCalls.Get()
	defer packedCalls.Put(call)
	in := &call.args.putPackedArgs
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("sdskv: %v", err)
		return
	}
	d, ok := p.database(in.DBID)
	if !ok {
		ctx.RespondError("sdskv: unknown database %d", in.DBID)
		return
	}
	// The backend's Put copies each pair out of the scratch the batch
	// views before the handler returns.
	batch, err := pullPacked(ctx, in)
	if err != nil {
		ctx.RespondError("sdskv: put_packed: %v", err)
		return
	}
	defer batch.release()
	d.withWriteLock(ctx.Self, func() {
		ctx.Compute(time.Duration(len(batch.Keys)) * p.cfg.PutCostPerKey)
		for i := range batch.Keys {
			if err = d.db.Put(batch.Keys[i], batch.Values[i]); err != nil {
				return
			}
		}
	})
	if err != nil {
		ctx.RespondError("sdskv: put packed: %v", err)
		return
	}
	ctx.Respond(mercury.Void{})
}

func (p *Provider) handleList(ctx *margo.Context) {
	call := listCalls.Get()
	defer listCalls.Put(call)
	in := &call.in
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("sdskv: %v", err)
		return
	}
	d, ok := p.database(in.DBID)
	if !ok {
		ctx.RespondError("sdskv: unknown database %d", in.DBID)
		return
	}
	// The pairs are copied out of the store into a pooled header array
	// and a recycled arena, both given back once Respond has encoded them.
	headers, arena := listHeaders.Get().(*[]kv.Pair), mercury.GetArena(0)
	pairs, buf, err := d.db.AppendList((*headers)[:0], *arena, in.StartKey, int(in.MaxKeys))
	if err != nil {
		ctx.RespondError("sdskv: list: %v", err)
	} else {
		ctx.Compute(time.Duration(len(pairs)) * p.cfg.ListCostPerItem)
		call.reply = pairs
		ctx.Respond(&call.reply)
	}
	clear(pairs)
	*headers = pairs[:0]
	listHeaders.Put(headers)
	mercury.PutArena(arena, buf)
}
