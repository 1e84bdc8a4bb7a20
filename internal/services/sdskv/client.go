package sdskv

import (
	"fmt"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
)

// Client is the origin-side SDSKV API.
type Client struct {
	inst *margo.Instance
}

// NewClient wires SDSKV RPCs into a Margo instance and returns a client.
func NewClient(inst *margo.Instance) (*Client, error) {
	if err := inst.RegisterClient(RPCNames()...); err != nil {
		return nil, err
	}
	return &Client{inst: inst}, nil
}

// Put stores one key-value pair.
func (c *Client) Put(self *abt.ULT, target string, db uint32, key, value []byte) error {
	in := putCalls.Get()
	*in = putArgs{DBID: db, Key: key, Value: value}
	err := c.inst.Forward(self, target, RPCPut, in, nil)
	putCalls.Put(in)
	return err
}

// Get retrieves the value stored under key, as a copy the caller owns:
// GetInto with no buffer.
func (c *Client) Get(self *abt.ULT, target string, db uint32, key []byte) ([]byte, bool, error) {
	return c.GetInto(self, target, db, key, nil)
}

// GetInto appends the value stored under key to dst and returns the
// extended slice (dst unchanged when the key is absent). The value is
// copied out of the response frame once, straight into dst, so a dst with
// room for it makes the call allocate nothing.
func (c *Client) GetInto(self *abt.ULT, target string, db uint32, key, dst []byte) ([]byte, bool, error) {
	call := getCalls.Get()
	defer getCalls.Put(call)
	call.in = getArgs{DBID: db, Key: key}
	call.out.Value = dst
	if err := c.inst.Forward(self, target, RPCGet, &call.in, &call.out); err != nil {
		return dst, false, err
	}
	return call.out.Value, call.out.Found, nil
}

// PutMulti stores n pairs, one logical RPC each, through the margo
// coalescer: pairs issued together share a vectored frame when the
// instance batches (margo.Options.Batch), with per-pair status in the
// reply. Returns one error per pair. Unlike PutPacked the pairs stay
// independent RPCs — a shed or expired member fails alone.
func (c *Client) PutMulti(self *abt.ULT, target string, db uint32, keys, values [][]byte) []error {
	if len(keys) != len(values) {
		errs := make([]error, len(keys))
		for i := range errs {
			errs[i] = fmt.Errorf("sdskv: PutMulti keys/values length mismatch (%d != %d)", len(keys), len(values))
		}
		return errs
	}
	ins := make([]mercury.Procable, len(keys))
	args := make([]putArgs, len(keys))
	for i := range keys {
		args[i] = putArgs{DBID: db, Key: keys[i], Value: values[i]}
		ins[i] = &args[i]
	}
	return c.inst.ForwardMany(self, target, RPCPut, ins, nil)
}

// GetMulti retrieves n keys through the coalescer, one logical RPC
// each. values[i]/found[i] are valid iff errs[i] is nil. The values are
// the caller's: copies, capacity-clipped, sharing one buffer per call
// when they are of one size.
func (c *Client) GetMulti(self *abt.ULT, target string, db uint32, keys [][]byte) (values [][]byte, found []bool, errs []error) {
	ins := make([]mercury.Procable, len(keys))
	outs := make([]mercury.Procable, len(keys))
	calls := make([]getCall, len(keys))
	multi := &multiValues{due: len(keys)}
	for i := range keys {
		calls[i] = getCall{in: getArgs{DBID: db, Key: keys[i]}, out: getResp{multi: multi}}
		ins[i], outs[i] = &calls[i].in, &calls[i].out
	}
	errs = c.inst.ForwardMany(self, target, RPCGet, ins, outs)
	values = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	for i := range calls {
		if errs[i] == nil {
			values[i], found[i] = calls[i].out.Value, calls[i].out.Found
		}
	}
	return values, found, errs
}

// PutPacked stores a batch of pairs with a single RPC: PutFrame of a
// frame holding them.
func (c *Client) PutPacked(self *abt.ULT, target string, db uint32, keys, values [][]byte) error {
	call := packedCalls.Get()
	defer packedCalls.Put(call)
	call.args.DBID = db
	return call.sendPairs(c.inst, self, target, RPCPutPacked, keys, values, &call.args.putPackedArgs)
}

// PutFrame stores the pairs of f with a single RPC, exposing f as it is
// for the target's bulk pull — the HEPnOS data-loader hot path (paper
// §V-C1). f stays the caller's to Release.
func (c *Client) PutFrame(self *abt.ULT, target string, db uint32, f *Frame) error {
	call := packedCalls.Get()
	defer packedCalls.Put(call)
	call.args.DBID = db
	return call.send(c.inst, self, target, RPCPutPacked, f, &call.args.putPackedArgs)
}

// sendPairs sends a frame of keys[i] and values[i] for every i, grown
// once to their size.
func (call *packedCall) sendPairs(inst *margo.Instance, self *abt.ULT, target, rpc string, keys, values [][]byte, in mercury.Procable) error {
	if len(keys) != len(values) {
		return fmt.Errorf("sdskv: %d keys and %d values", len(keys), len(values))
	}
	size := 0
	for i := range keys {
		size += 8 + len(keys[i]) + len(values[i])
	}
	call.frame.grow(size)
	for i := range keys {
		call.frame.Add(keys[i], values[i])
	}
	defer call.frame.Release()
	return call.send(inst, self, target, rpc, &call.frame, in)
}

// send exposes f for the target's bulk pull and forwards in, which is
// call.args or its putPackedArgs. After BulkFree no pull, of this try or
// a timed-out earlier one, can read f, so f may then be released.
func (call *packedCall) send(inst *margo.Instance, self *abt.ULT, target, rpc string, f *Frame, in mercury.Procable) error {
	buf := f.bytes()
	bulk := inst.BulkCreate(buf)
	defer inst.BulkFree(bulk)
	call.args.NumKeys, call.args.Bulk, call.args.Size = f.n, bulk, uint64(len(buf))
	return inst.Forward(self, target, rpc, in, nil)
}

// Listing is what ListKeyvals lists into: Keys[i] and Values[i] are the
// i-th pair, copied out of the response frame into one buffer the
// Listing owns, each a capacity-clipped slice of it. A Listing is meant
// to be reused: every ListKeyvals into it replaces what it held and keeps
// the capacity of its headers and buffer, so a listing no larger than
// one before it allocates nothing. The zero value is ready to use.
type Listing struct {
	Keys, Values [][]byte
	buf          []byte
}

// reset empties the listing, keeping its capacity.
func (l *Listing) reset() {
	clear(l.Keys)
	clear(l.Values)
	l.Keys, l.Values, l.buf = l.Keys[:0], l.Values[:0], l.buf[:0]
}

// ListKeyvals lists up to max pairs with keys >= start into l, replacing
// what it held; on an error l is left empty.
func (c *Client) ListKeyvals(self *abt.ULT, target string, db uint32, start []byte, max int, l *Listing) error {
	call := listCalls.Get()
	defer listCalls.Put(call)
	call.in = listArgs{DBID: db, StartKey: start, MaxKeys: uint32(max)}
	call.out.l = l
	l.reset()
	return c.inst.Forward(self, target, RPCListKeyvals, &call.in, &call.out)
}
