package ekv

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/kv"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/ssg"
)

// opTimeout bounds one Put or Get issued outside any request that
// carries a deadline of its own. Routing is retried until the deadline,
// not a number of times: each attempt is one full margo forward (with
// its own retry/breaker machinery underneath), and time is only spent
// between attempts while no newer membership view exists to route with.
const opTimeout = 10 * time.Second

// Pauses between attempts that have no newer view to route with.
const (
	minRoutePause = time.Millisecond
	maxRoutePause = 32 * time.Millisecond
)

// Client routes ops over the elastic group: it keeps a rendezvous ring
// built from the freshest membership view it has seen and sends every
// op to the ring's owner; when the response is a redirect or the owner
// is unreachable it routes again with a newer view, until the op's
// deadline (see route.retry). On a server-mode instance the client also
// subscribes to pushed membership deltas, so routing tables usually
// refresh ahead of the first redirect.
type Client struct {
	inst  *margo.Instance
	ssgc  *ssg.Client
	agent *ssg.Agent // nil on pull-only (client-mode) instances
	root  string
	group string

	mu   sync.Mutex
	ring *kv.Ring

	redirects atomic.Uint64
}

// NewClient wires the elastic KV client RPCs into a Margo instance.
// root is the SSG host rooting the service group. Call Attach before
// the first op to load the initial view.
func NewClient(inst *margo.Instance, root, group string) (*Client, error) {
	// Client ops are idempotent (put is an overwrite; get is pure), so
	// the margo retry machinery may re-issue timed-out attempts.
	if err := inst.RegisterClientIdempotent(ClientRPCNames()...); err != nil {
		return nil, err
	}
	c := &Client{inst: inst, root: root, group: group}
	var err error
	if inst.Mode() == margo.ModeServer {
		// Server-mode callers can service ssg_notify pushes: subscribe
		// for deltas so the ring refreshes proactively under churn.
		c.agent, err = ssg.NewAgent(inst)
		if err != nil {
			return nil, err
		}
		c.agent.OnEvent(group, func(ev ssg.Event) {
			if ev.Type == ssg.EventSuspect {
				return
			}
			c.applyView(ev.View)
		})
		c.ssgc = c.agent.Client()
	} else {
		c.ssgc, err = ssg.NewClient(inst)
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Attach loads the initial membership view (and, on server-mode
// instances, subscribes for pushed deltas).
func (c *Client) Attach(self *abt.ULT) error {
	if c.agent != nil {
		v, err := c.agent.Watch(self, c.root, c.group)
		if err != nil {
			return err
		}
		c.applyView(v)
		return nil
	}
	return c.Refresh(self)
}

// Refresh re-pulls the view from the root and rebuilds the ring if it
// is newer.
func (c *Client) Refresh(self *abt.ULT) error {
	v, err := c.ssgc.Observe(self, c.root, c.group)
	if err != nil {
		return err
	}
	c.applyView(v)
	return nil
}

func (c *Client) applyView(v ssg.View) {
	c.mu.Lock()
	if c.ring == nil || v.Version > c.ring.Version() {
		c.ring = kv.NewRing(v.Version, v.Addrs())
	}
	c.mu.Unlock()
}

func (c *Client) snapshot() *kv.Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// version is the version of the view the client routes with, 0 before
// the first.
func (c *Client) version() uint64 {
	if r := c.snapshot(); r != nil {
		return r.Version()
	}
	return 0
}

// Redirects reports how many ops were re-routed after a stale-view
// redirect or an unreachable owner.
func (c *Client) Redirects() uint64 { return c.redirects.Load() }

// route is the retry state of one op.
type route struct {
	c        *Client
	deadline time.Time
	pause    time.Duration
	lastErr  error
}

// begin starts an op: its deadline is the one the calling ULT's own
// request carries, if it is servicing one, or opTimeout from now.
func (c *Client) begin(self *abt.ULT) route {
	rt := route{c: c, pause: minRoutePause}
	if ctx, ok := self.Data().(*margo.Context); ok {
		rt.deadline = ctx.Deadline()
	}
	if rt.deadline.IsZero() {
		rt.deadline = time.Now().Add(opTimeout)
	}
	return rt
}

// ring returns the ring to route the next attempt with, loading the
// first view if there is none yet.
func (rt *route) ring(self *abt.ULT) (*kv.Ring, error) {
	for {
		if r := rt.c.snapshot(); r != nil && r.Size() > 0 {
			return r, nil
		}
		if err := rt.c.Refresh(self); err != nil {
			return nil, err
		}
		if err := rt.retry(self, rt.c.version(), nil); err != nil {
			return nil, err
		}
	}
}

// retry is called after an attempt routed with view version routed was
// redirected or found its owner unreachable (cause). It returns when
// the next attempt is worth making: at once if a newer view is there to
// route with — pushed by the subscription on a server-mode instance
// while the op was in flight, or pulled from the root now — so every
// immediate retry uses a strictly newer view; otherwise after a pause,
// for the case where it is the node that lags the view, or the failure
// was transient. Only the deadline ends the sequence.
func (rt *route) retry(self *abt.ULT, routed uint64, cause error) error {
	c := rt.c
	if cause != nil {
		rt.lastErr = cause
	}
	if !time.Now().Before(rt.deadline) {
		return fmt.Errorf("%w: routing did not converge (last view version %d, last error: %v)",
			margo.ErrDeadlineExceeded, c.version(), rt.lastErr)
	}
	if c.version() > routed {
		return nil
	}
	if err := c.Refresh(self); err != nil {
		rt.lastErr = err
	}
	if c.version() > routed {
		return nil
	}
	self.Sleep(rt.pause)
	rt.pause = min(2*rt.pause, maxRoutePause)
	return nil
}

// Per-call records: arguments and replies travel as mercury.Procable
// interfaces and would otherwise escape from the stack on each call.
type (
	putCall struct {
		in  putArgs
		out opResp
	}
	getCall struct {
		in  getArgs
		out getResp
	}
	peerGetCall struct {
		in  peerGetArgs
		out peerGetResp
	}
)

var (
	putCalls     mercury.Records[putCall]
	getCalls     mercury.Records[getCall]
	peerGetCalls mercury.Records[peerGetCall]
)

// Put stores one pair at the key's owner, chasing membership churn as
// needed. An acked Put is durable at the owner (or dual-written to it).
func (c *Client) Put(self *abt.ULT, key, value []byte) error {
	call := putCalls.Get()
	defer putCalls.Put(call)
	rt := c.begin(self)
	for {
		r, err := rt.ring(self)
		if err != nil {
			return err
		}
		call.in = putArgs{Key: key, Value: value}
		// An unreachable owner (departed, drained, partitioned) and a
		// wrong-owner redirect are handled alike: route again.
		err = c.inst.Forward(self, r.Owner(key), RPCPut, &call.in, &call.out)
		if err == nil && call.out.Status != statusWrongOwner {
			return nil
		}
		c.redirects.Add(1)
		if err := rt.retry(self, r.Version(), err); err != nil {
			return fmt.Errorf("ekv: put %q: %w", key, err)
		}
	}
}

// Get fetches the value for key from its owner, as a copy the caller
// owns.
func (c *Client) Get(self *abt.ULT, key []byte) ([]byte, bool, error) {
	call := getCalls.Get()
	defer getCalls.Put(call)
	rt := c.begin(self)
	for {
		r, err := rt.ring(self)
		if err != nil {
			return nil, false, err
		}
		call.in, call.out = getArgs{Key: key}, getResp{}
		err = c.inst.Forward(self, r.Owner(key), RPCGet, &call.in, &call.out)
		if err == nil && call.out.Status != statusWrongOwner {
			return call.out.Value, call.out.Found, nil
		}
		c.redirects.Add(1)
		if err := rt.retry(self, r.Version(), err); err != nil {
			return nil, false, fmt.Errorf("ekv: get %q: %w", key, err)
		}
	}
}
