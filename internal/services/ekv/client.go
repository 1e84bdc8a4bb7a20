package ekv

import (
	"fmt"
	"sync"
	"sync/atomic"

	"symbiosys/internal/abt"
	"symbiosys/internal/kv"
	"symbiosys/internal/margo"
	"symbiosys/internal/ssg"
)

// maxRouteRetries bounds the refresh-and-retry loop per op. Each
// iteration is one full margo forward (with its own retry/breaker
// machinery underneath); iterations are only spent on redirects and
// transport failures, so hitting the cap means membership churned
// faster than the client could chase it.
const maxRouteRetries = 8

// Client routes ops over the elastic group: it keeps a rendezvous ring
// built from the freshest membership view it has seen and sends every
// op to the ring's owner, refreshing the view and retrying when the
// response is a redirect or the owner is unreachable. On a server-mode
// instance the client also subscribes to pushed membership deltas, so
// routing tables usually refresh ahead of the first redirect.
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

// Redirects reports how many ops were re-routed after a stale-view
// redirect or an unreachable owner.
func (c *Client) Redirects() uint64 { return c.redirects.Load() }

// Put stores one pair at the key's owner, chasing membership churn as
// needed. An acked Put is durable at the owner (or dual-written to it).
func (c *Client) Put(self *abt.ULT, key, value []byte) error {
	for attempt := 0; attempt < maxRouteRetries; attempt++ {
		r := c.snapshot()
		if r == nil || r.Size() == 0 {
			if err := c.Refresh(self); err != nil {
				return err
			}
			continue
		}
		owner := r.Owner(key)
		var out opResp
		err := c.inst.Forward(self, owner, RPCPut, &putArgs{Key: key, Value: value, Version: r.Version()}, &out)
		if err != nil {
			// Owner unreachable (departed, drained, partitioned): pick
			// up the newest view and re-route through the margo
			// breaker machinery.
			c.redirects.Add(1)
			_ = c.Refresh(self)
			continue
		}
		if out.Status == statusWrongOwner {
			c.redirects.Add(1)
			_ = c.Refresh(self)
			continue
		}
		return nil
	}
	return fmt.Errorf("ekv: put %q: routing did not converge after %d attempts", key, maxRouteRetries)
}

// Get fetches the value for key from its owner.
func (c *Client) Get(self *abt.ULT, key []byte) ([]byte, bool, error) {
	for attempt := 0; attempt < maxRouteRetries; attempt++ {
		r := c.snapshot()
		if r == nil || r.Size() == 0 {
			if err := c.Refresh(self); err != nil {
				return nil, false, err
			}
			continue
		}
		owner := r.Owner(key)
		var out getResp
		err := c.inst.Forward(self, owner, RPCGet, &getArgs{Key: key, Version: r.Version()}, &out)
		if err != nil {
			c.redirects.Add(1)
			_ = c.Refresh(self)
			continue
		}
		if out.Status == statusWrongOwner {
			c.redirects.Add(1)
			_ = c.Refresh(self)
			continue
		}
		return out.Value, out.Found, nil
	}
	return nil, false, fmt.Errorf("ekv: get %q: routing did not converge after %d attempts", key, maxRouteRetries)
}
