package sdskv

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/kv"
	"symbiosys/internal/margo"
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

// Router puts and gets over an elastic group: it keeps a rendezvous ring
// built from the freshest membership view it has seen and sends every
// op, as a plain put or get, to the database of the ring's owner; when
// the owner refuses it (a stale route) or is unreachable it routes again
// with a newer view, until the op's deadline (see route). On a
// server-mode instance the router also subscribes to pushed membership
// deltas, so routing tables usually refresh ahead of the first refusal.
type Router struct {
	c     *Client
	ssgc  *ssg.Client
	agent *ssg.Agent // nil on pull-only (client-mode) instances
	root  string
	group string

	mu   sync.Mutex
	ring *kv.Ring

	redirects atomic.Uint64
}

// NewRouter wires the sdskv client RPCs into a Margo instance. root is
// the SSG host rooting the service group. Call Attach before the first
// op to load the initial view.
func NewRouter(inst *margo.Instance, root, group string) (*Router, error) {
	c, err := NewClient(inst)
	if err != nil {
		return nil, err
	}
	// Put is an overwrite and get is pure, so the margo retry machinery
	// may re-issue timed-out attempts.
	inst.MarkIdempotent(RPCPut, RPCGet)
	r := &Router{c: c, root: root, group: group}
	if inst.Mode() == margo.ModeServer {
		// Server-mode callers can service ssg_notify pushes: subscribe
		// for deltas so the ring refreshes proactively under churn.
		r.agent, err = ssg.NewAgent(inst)
		if err != nil {
			return nil, err
		}
		r.agent.OnEvent(group, func(ev ssg.Event) { r.applyView(ev.View) })
		r.ssgc = r.agent.Client()
	} else if r.ssgc, err = ssg.NewClient(inst); err != nil {
		return nil, err
	}
	return r, nil
}

// Attach loads the initial membership view (and, on server-mode
// instances, subscribes for pushed deltas).
func (r *Router) Attach(self *abt.ULT) error {
	if r.agent == nil {
		return r.Refresh(self)
	}
	v, err := r.agent.Watch(self, r.root, r.group)
	if err != nil {
		return err
	}
	r.applyView(v)
	return nil
}

// Refresh re-pulls the view from the root and rebuilds the ring if it
// is newer.
func (r *Router) Refresh(self *abt.ULT) error {
	v, err := r.ssgc.Observe(self, r.root, r.group)
	if err != nil {
		return err
	}
	r.applyView(v)
	return nil
}

func (r *Router) applyView(v ssg.View) {
	r.mu.Lock()
	if r.ring == nil || v.Version > r.ring.Version() {
		r.ring = kv.NewRing(v.Version, v.Addrs())
	}
	r.mu.Unlock()
}

func (r *Router) snapshot() *kv.Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

// version is the version of the view the router routes with, 0 before
// the first.
func (r *Router) version() uint64 {
	if ring := r.snapshot(); ring != nil {
		return ring.Version()
	}
	return 0
}

// Redirects reports how many ops were re-routed after a refusal or an
// unreachable owner.
func (r *Router) Redirects() uint64 { return r.redirects.Load() }

// Put stores one pair at the key's owner, chasing membership churn as
// needed. An acked Put is durable at the owner (or dual-written to it).
func (r *Router) Put(self *abt.ULT, key, value []byte) error {
	return r.route(self, "put", key, func(owner string) error {
		return r.c.Put(self, owner, nodeDB, key, value)
	})
}

// Get fetches the value for key from its owner, as a copy the caller
// owns.
func (r *Router) Get(self *abt.ULT, key []byte) (value []byte, found bool, err error) {
	err = r.route(self, "get", key, func(owner string) (err error) {
		value, found, err = r.c.Get(self, owner, nodeDB, key)
		return err
	})
	return value, found, err
}

// route runs attempt against key's owner until it succeeds or the op's
// deadline passes: the deadline the calling ULT's own request carries,
// if it is servicing one, or opTimeout from now. A refusal and an
// unreachable owner (departed, drained, partitioned) are handled alike.
// The next attempt goes at once if a newer view is there to route with —
// pushed by the subscription on a server-mode instance while the op was
// in flight, or pulled from the root now — so every immediate retry uses
// a strictly newer view; otherwise after a pause, for the case where it
// is the node that lags the view, or the failure was transient.
func (r *Router) route(self *abt.ULT, op string, key []byte, attempt func(owner string) error) error {
	var deadline time.Time
	if ctx, ok := self.Data().(*margo.Context); ok {
		deadline = ctx.Deadline()
	}
	if deadline.IsZero() {
		deadline = time.Now().Add(opTimeout)
	}
	pause := minRoutePause
	var lastErr error
	for {
		ring := r.snapshot()
		var routed uint64
		if ring != nil {
			routed = ring.Version()
		}
		if ring != nil && ring.Size() > 0 {
			err := attempt(ring.Owner(key))
			if err == nil {
				return nil
			}
			r.redirects.Add(1)
			lastErr = err
		} else if err := r.Refresh(self); err != nil {
			return err
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("sdskv: %s %q: %w: routing did not converge (last view version %d, last error: %v)",
				op, key, margo.ErrDeadlineExceeded, r.version(), lastErr)
		}
		if r.version() > routed {
			continue
		}
		if err := r.Refresh(self); err != nil {
			lastErr = err
		}
		if r.version() > routed {
			continue
		}
		self.Sleep(pause)
		pause = min(2*pause, maxRoutePause)
	}
}
