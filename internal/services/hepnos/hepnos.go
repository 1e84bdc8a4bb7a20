// Package hepnos reimplements HEPnOS, the Mochi storage service for
// high-energy-physics event data (paper §V-C). Data is arranged in a
// hierarchy of datasets, runs, subruns, and events; each service
// provider node hosts one BAKE provider for bulk object data and one
// SDSKV provider with several databases for event metadata (paper
// Figure 8). Clients contact the providers directly: the data-loader
// batches serialized events per destination database and ships each
// batch with a single sdskv_put_packed RPC — the only dominant callpath
// of the loader, as the paper observes.
//
// Database selection follows the paper's client-side hashing scheme: the
// event key is hashed against the total number of databases across all
// servers to pick the (server, database) destination, so more databases
// spread the same events across more, smaller RPCs (§V-C3).
package hepnos

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/services/bake"
	"symbiosys/internal/services/sdskv"
)

// EventKey names one event in the dataset/run/subrun hierarchy.
type EventKey struct {
	DataSet string
	Run     uint64
	SubRun  uint64
	Event   uint64
}

// String renders the canonical storage key.
func (k EventKey) String() string { return string(k.AppendTo(nil)) }

// Bytes returns the storage key as an exact-size byte slice.
func (k EventKey) Bytes() []byte {
	return k.AppendTo(make([]byte, 0, len(k.DataSet)+3*(1+keyDigits)))
}

// keyDigits is the zero-padded width of each numeric key component.
const keyDigits = 12

// AppendTo appends the canonical storage key,
// "<dataset>/<run>/<subrun>/<event>" with each number zero-padded to
// twelve digits (wider numbers are written in full), to dst.
func (k EventKey) AppendTo(dst []byte) []byte {
	dst = append(dst, k.DataSet...)
	for _, v := range [...]uint64{k.Run, k.SubRun, k.Event} {
		var scratch [20]byte // holds any uint64
		digits := strconv.AppendUint(scratch[:0], v, 10)
		dst = append(dst, '/')
		for pad := len(digits); pad < keyDigits; pad++ {
			dst = append(dst, '0')
		}
		dst = append(dst, digits...)
	}
	return dst
}

// Server is one HEPnOS service provider process: a Margo server with a
// BAKE provider and an SDSKV provider hosting `databases` event DBs.
type Server struct {
	Inst  *margo.Instance
	Bake  *bake.Provider
	Sdskv *sdskv.Provider
	DBIDs []uint32
}

// NewServer installs the HEPnOS providers on inst, opening `databases`
// event databases on the given kv backend. kvCfg tunes the modeled
// backend costs (zero values select the sdskv defaults).
func NewServer(inst *margo.Instance, databases int, backend string, kvCfg sdskv.Config) (*Server, error) {
	s := &Server{Inst: inst}
	var err error
	if s.Bake, err = bake.RegisterProvider(inst); err != nil {
		return nil, err
	}
	if s.Sdskv, err = sdskv.RegisterProvider(inst, kvCfg); err != nil {
		return nil, err
	}
	for i := 0; i < databases; i++ {
		id, err := s.Sdskv.OpenLocal(fmt.Sprintf("hepnos-events-%d", i), backend)
		if err != nil {
			return nil, err
		}
		s.DBIDs = append(s.DBIDs, id)
	}
	return s, nil
}

// Addr returns the server's fabric address.
func (s *Server) Addr() string { return s.Inst.Addr() }

// StoredEvents reports the total number of events across the server's
// databases (test/validation support; queried locally, not via RPC).
func (s *Server) StoredEvents() int {
	total := 0
	for _, id := range s.DBIDs {
		total += s.dbLen(id)
	}
	return total
}

func (s *Server) dbLen(id uint32) int {
	n, err := s.Sdskv.LocalLength(id)
	if err != nil {
		return 0
	}
	return n
}

// ServerInfo is a client's view of one HEPnOS server.
type ServerInfo struct {
	Addr  string
	DBIDs []uint32
}

// Client is the HEPnOS client API used by the data-loader. It batches
// events per destination database and flushes each batch as one
// sdskv_put_packed RPC when it reaches BatchSize. A Client is owned by
// a single issuing ULT (like a per-thread HEPnOS C++ client).
//
// With MaxInflight > 1 the client behaves like HEPnOS's asynchronous
// engine: each flush is issued from its own (detached, recycled) ULT,
// up to MaxInflight outstanding at once, and Flush waits for all of
// them. This is what produces the bursty RPC floods of the paper's
// §V-C3/§V-C4 studies.
type Client struct {
	inst      *margo.Instance
	kv        *sdskv.Client
	servers   []ServerInfo
	batchSize int
	totalDBs  int

	// pending holds the open batch of each destination database, nil
	// until its first event. keyBuf is where a key is formatted to be
	// hashed, before it is known which batch's frame it belongs in.
	pending []*batch
	keyBuf  []byte
	stored  uint64

	// free holds the batches not in use: a flushed batch comes back here,
	// from the flusher ULT in async mode, and the next event for a
	// database without an open batch takes one. Nothing is allocated per
	// flush once totalDBs + maxInflight batches exist.
	freeMu sync.Mutex
	free   []*batch

	issueCost time.Duration
	// issueDebt accumulates modeled issue cost and is paid in coarse
	// slices: host timers make many tiny sleeps far more expensive than
	// their nominal duration, which would distort the model.
	issueDebt time.Duration

	// Async engine state. window holds one permit per allowed
	// outstanding flush; a flusher returns its permit when it is done,
	// so holding all maxInflight permits means none is outstanding.
	maxInflight int
	window      *abt.Semaphore
	asyncErrMu  sync.Mutex
	asyncErr    error
}

// batch is the events queued for one database, copied into the frame
// the target will pull. In async mode it is also the flusher ULT's
// record, so it names its owner and destination.
type batch struct {
	c     *Client
	addr  string
	dbID  uint32
	frame sdskv.Frame
}

// takeBatch returns an empty batch.
func (c *Client) takeBatch() *batch {
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	if n := len(c.free); n > 0 {
		b := c.free[n-1]
		c.free = c.free[:n-1]
		return b
	}
	return &batch{c: c}
}

// recycle releases a flushed batch's frame and frees the batch.
func (b *batch) recycle() {
	b.frame.Release()
	c := b.c
	c.freeMu.Lock()
	c.free = append(c.free, b)
	c.freeMu.Unlock()
}

// Options tunes a loader client.
type Options struct {
	// BatchSize is the paper's "Batch Size" knob (Table IV).
	BatchSize int
	// MaxInflight > 1 enables the asynchronous flush engine with that
	// many outstanding put_packed RPCs; 0 or 1 issues synchronously.
	MaxInflight int
	// IssueCost models the client-side CPU work of preparing one
	// put_packed request (packing, hashing, memory registration). It
	// occupies the issuing ULT's execution stream, which is what the
	// Mercury progress ULT competes with in the paper's §V-C4 study.
	IssueCost time.Duration
}

// NewClient wires the SDSKV (and BAKE) RPCs into the instance and
// returns a loader client.
func NewClient(inst *margo.Instance, servers []ServerInfo, opts Options) (*Client, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 1
	}
	kvc, err := sdskv.NewClient(inst)
	if err != nil {
		return nil, err
	}
	if _, err := bake.NewClient(inst); err != nil {
		return nil, err
	}
	total := 0
	for _, s := range servers {
		total += len(s.DBIDs)
	}
	if total == 0 {
		return nil, fmt.Errorf("hepnos: no databases configured")
	}
	c := &Client{
		inst:        inst,
		kv:          kvc,
		servers:     servers,
		batchSize:   opts.BatchSize,
		totalDBs:    total,
		pending:     make([]*batch, total),
		maxInflight: opts.MaxInflight,
		issueCost:   opts.IssueCost,
	}
	if c.maxInflight > 1 {
		c.window = abt.NewSemaphore(c.maxInflight)
	}
	return c, nil
}

// Stored reports how many events this client has flushed so far.
func (c *Client) Stored() uint64 { return c.stored }

// dbFor hashes an event key to a global database index (paper §V-C3).
// FNV's low bits correlate for near-sequential keys, so the hash is
// passed through a murmur-style finalizer before the modulo.
func (c *Client) dbFor(key []byte) int {
	h := fnv.New64a()
	h.Write(key)
	v := h.Sum64()
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return int(v % uint64(c.totalDBs))
}

// locate maps a global database index to (server address, db id).
func (c *Client) locate(global int) (string, uint32) {
	for _, s := range c.servers {
		if global < len(s.DBIDs) {
			return s.Addr, s.DBIDs[global]
		}
		global -= len(s.DBIDs)
	}
	panic("hepnos: database index out of range")
}

// StoreEvent queues a copy of one serialized event, so the caller may
// reuse data once it returns; when its destination batch reaches
// BatchSize the batch is flushed with a single sdskv_put_packed RPC from
// the calling ULT.
func (c *Client) StoreEvent(self *abt.ULT, key EventKey, data []byte) error {
	c.keyBuf = key.AppendTo(c.keyBuf[:0])
	idx := c.dbFor(c.keyBuf)
	b := c.pending[idx]
	if b == nil {
		// The frame draws a recycled arena from the pool sized for the
		// whole batch, up to the 1 MiB the pool keeps.
		b = c.takeBatch()
		b.frame.Expect(min(c.batchSize*(8+len(c.keyBuf)+len(data)), 1<<20))
		c.pending[idx] = b
	}
	b.frame.Add(c.keyBuf, data)
	if b.frame.Len() >= c.batchSize {
		return c.flushDB(self, idx)
	}
	return nil
}

// Flush ships every non-empty batch and, in async mode, waits for all
// outstanding flushes to complete.
func (c *Client) Flush(self *abt.ULT) error {
	for idx, b := range c.pending {
		if b != nil && b.frame.Len() > 0 {
			if err := c.flushDB(self, idx); err != nil {
				return err
			}
		}
	}
	return c.waitOutstanding(self)
}

func (c *Client) flushDB(self *abt.ULT, idx int) error {
	b := c.pending[idx]
	c.pending[idx] = nil
	b.addr, b.dbID = c.locate(idx)
	n := b.frame.Len()
	if c.issueCost > 0 {
		// Modeled request-preparation CPU: holds the stream, as the
		// real packing work would. Paid in coarse slices (see issueDebt).
		c.issueDebt += c.issueCost
		if c.issueDebt >= 200*time.Microsecond {
			time.Sleep(c.issueDebt)
			c.issueDebt = 0
		}
	}
	if c.window == nil {
		err := b.put(self)
		b.recycle()
		if err != nil {
			return err
		}
		c.stored += uint64(n)
		return nil
	}
	// Async engine: issue from a detached ULT, bounded by the window.
	// Nothing joins the flusher — the window permit it returns is the
	// join — so the scheduler recycles its struct and goroutine, and the
	// batch it is handed is its whole record.
	c.window.Acquire(self)
	c.inst.MainPool().CreateDetachedWith("hepnos-flush", runFlush, b)
	c.stored += uint64(n)
	return c.takeAsyncErr()
}

// put ships the batch with one sdskv_put_packed RPC.
func (b *batch) put(self *abt.ULT) error {
	if err := b.c.kv.PutFrame(self, b.addr, b.dbID, &b.frame); err != nil {
		return fmt.Errorf("hepnos: put_packed to %s db %d: %w", b.addr, b.dbID, err)
	}
	return nil
}

// runFlush is the body of an async flusher ULT; its data slot holds the
// batch to ship.
func runFlush(flusher *abt.ULT) {
	b := flusher.Data().(*batch)
	c := b.c
	if err := b.put(flusher); err != nil {
		c.asyncErrMu.Lock()
		if c.asyncErr == nil {
			c.asyncErr = err
		}
		c.asyncErrMu.Unlock()
	}
	b.recycle()
	c.window.Release()
}

// waitOutstanding waits for every in-flight async flush by taking the
// whole window, then hands it back.
func (c *Client) waitOutstanding(self *abt.ULT) error {
	if c.window != nil {
		for k := 0; k < c.maxInflight; k++ {
			c.window.Acquire(self)
		}
		for k := 0; k < c.maxInflight; k++ {
			c.window.Release()
		}
	}
	return c.takeAsyncErr()
}

func (c *Client) takeAsyncErr() error {
	c.asyncErrMu.Lock()
	defer c.asyncErrMu.Unlock()
	return c.asyncErr
}

// LoadEvent fetches one event back (validation path).
func (c *Client) LoadEvent(self *abt.ULT, key EventKey) ([]byte, bool, error) {
	kb := key.Bytes()
	addr, dbID := c.locate(c.dbFor(kb))
	return c.kv.Get(self, addr, dbID, kb)
}
