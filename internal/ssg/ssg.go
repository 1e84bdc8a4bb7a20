// Package ssg reimplements SSG (Scalable Service Groups), the Mochi
// component for service group membership (paper §III-B). Server
// processes create or join named groups; clients observe a group to
// discover its members instead of being configured with addresses by
// hand. Views are versioned: every membership change bumps the version,
// and observers can cheaply refresh.
//
// The real SSG bootstraps over MPI/PMIx and maintains membership with
// SWIM gossip; this implementation roots each group at its creating
// process and runs join/leave/observe as ordinary RPCs over the fabric,
// which preserves the discovery API the services need. On top of the
// pull API the group is dynamic: membership changes are pushed as
// versioned view deltas to members and subscribed observers (Agent), so
// elasticity rides the same event stream. A member leaves only by
// saying so: there is no failure detector, and an unresponsive member
// stays in the view.
package ssg

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
)

// RPC names exported by a group root (join/leave/observe/subscribe) and
// by group participants (notify, see Agent).
const (
	RPCJoin      = "ssg_join_rpc"
	RPCLeave     = "ssg_leave_rpc"
	RPCObserve   = "ssg_observe_rpc"
	RPCSubscribe = "ssg_subscribe_rpc"
	RPCNotify    = "ssg_notify_rpc"
)

// notifyTimeout bounds each best-effort push RPC so one unreachable
// recipient cannot stall the notifier queue behind it.
const notifyTimeout = 250 * time.Millisecond

// RPCNames lists the root-side SSG RPCs (for client registration).
func RPCNames() []string {
	return []string{RPCJoin, RPCLeave, RPCObserve, RPCSubscribe}
}

// Errors returned by group operations.
var (
	ErrUnknownGroup = errors.New("ssg: unknown group")
	ErrNotMember    = errors.New("ssg: not a member")
)

// Member is one group participant.
type Member struct {
	Rank uint32
	Addr string
}

// EventType classifies one membership change.
type EventType uint8

// Membership event types.
const (
	// EventJoin: a member entered the group.
	EventJoin EventType = iota + 1
	// EventLeave: a member left voluntarily.
	EventLeave
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	}
	return "unknown"
}

// Event is one versioned membership delta: what changed, and the full
// view after the change.
type Event struct {
	Type   EventType
	Member Member
	View   View
}

// View is a versioned membership snapshot. Members is copy-on-write:
// the slice is rebuilt on every membership change and never mutated
// afterwards, so a View handed out under one version can be read
// concurrently with later churn. Treat it as read-only.
type View struct {
	Name    string
	Version uint64
	Members []Member // sorted by rank; immutable once published
}

// Addrs lists member addresses in rank order.
func (v *View) Addrs() []string {
	out := make([]string, len(v.Members))
	for i, m := range v.Members {
		out[i] = m.Addr
	}
	return out
}

// Group is the root-side state of one service group.
type Group struct {
	name string
	host *Host

	mu      sync.Mutex
	members map[string]uint32 // addr -> rank
	next    uint32
	version uint64
	cur     []Member        // copy-on-write sorted snapshot
	watch   map[string]bool // subscribed non-member observers
}

// Host manages the groups rooted at one server process.
type Host struct {
	inst *margo.Instance

	mu     sync.Mutex
	groups map[string]*Group

	// Push-notification queue, drained by a dedicated ULT so membership
	// handlers never block on fan-out RPCs.
	qmu      sync.Mutex
	queue    []push
	qsem     *abt.Semaphore
	notifier *abt.ULT
	stopped  bool
}

// push is one queued notification fan-out.
type push struct {
	group string
	ev    Event
}

// NewHost installs the SSG RPCs on a Margo server and returns the host.
func NewHost(inst *margo.Instance) (*Host, error) {
	h := &Host{inst: inst, groups: make(map[string]*Group)}
	handlers := map[string]margo.HandlerFunc{
		RPCJoin:      h.handleJoin,
		RPCLeave:     h.handleLeave,
		RPCObserve:   h.handleObserve,
		RPCSubscribe: h.handleSubscribe,
	}
	for name, fn := range handlers {
		if err := inst.Register(name, fn); err != nil {
			return nil, err
		}
	}
	// The root forwards notify to participants.
	if err := inst.RegisterClient(RPCNotify); err != nil {
		return nil, err
	}
	h.qsem = abt.NewSemaphore(1)
	h.qsem.Acquire(nil) // consume the initial permit: queue starts empty
	h.notifier = inst.Run("ssg-notifier", h.notifyLoop)
	return h, nil
}

// Close stops the host's notifier ULT. The margo instance is not
// touched.
func (h *Host) Close() {
	h.qmu.Lock()
	if h.stopped {
		h.qmu.Unlock()
		return
	}
	h.stopped = true
	h.qmu.Unlock()
	h.qsem.Release() // wake the notifier so it observes stopped
	h.notifier.Join(nil)
}

// Create roots a new group containing (optionally) the host itself.
func (h *Host) Create(name string, includeSelf bool) (*Group, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.groups[name]; dup {
		return nil, fmt.Errorf("ssg: group %q exists", name)
	}
	g := &Group{name: name, host: h, members: make(map[string]uint32), watch: make(map[string]bool)}
	if includeSelf {
		g.members[h.inst.Addr()] = 0
		g.next = 1
		g.version = 1
		g.rebuildLocked()
	}
	h.groups[name] = g
	return g, nil
}

func (h *Host) group(name string) (*Group, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	g, ok := h.groups[name]
	return g, ok
}

// rebuildLocked refreshes the copy-on-write member snapshot. Must run
// with g.mu held.
func (g *Group) rebuildLocked() {
	cur := make([]Member, 0, len(g.members))
	for addr, rank := range g.members {
		cur = append(cur, Member{Rank: rank, Addr: addr})
	}
	sort.Slice(cur, func(i, j int) bool { return cur[i].Rank < cur[j].Rank })
	g.cur = cur
}

// View snapshots the group's membership. The returned member slice is
// the immutable copy-on-write snapshot: safe to read under concurrent
// churn, never mutated in place.
func (g *Group) View() View {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.viewLocked()
}

func (g *Group) viewLocked() View {
	return View{Name: g.name, Version: g.version, Members: g.cur}
}

// join adds a member, returning its rank, the new view, and whether
// membership actually changed.
func (g *Group) join(addr string) (uint32, View, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if rank, already := g.members[addr]; already {
		return rank, g.viewLocked(), false
	}
	rank := g.next
	g.next++
	g.members[addr] = rank
	g.version++
	g.rebuildLocked()
	return rank, g.viewLocked(), true
}

// leave removes a member, reporting whether it was present.
func (g *Group) leave(addr string) (View, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.members[addr]; !ok {
		return View{}, false
	}
	delete(g.members, addr)
	g.version++
	g.rebuildLocked()
	return g.viewLocked(), true
}

// subscribe registers a non-member observer for push notifications.
func (g *Group) subscribe(addr string) View {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.watch[addr] = true
	return g.viewLocked()
}

// recipients lists every address to push an event to: members plus
// subscribed observers, minus the event's own member (a joiner already
// holds the view from its join response; a member that left is gone).
func (g *Group) recipients(ev Event) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.cur)+len(g.watch))
	for _, m := range g.cur {
		if m.Addr != ev.Member.Addr && m.Addr != g.host.inst.Addr() {
			out = append(out, m.Addr)
		}
	}
	for addr := range g.watch {
		if addr != ev.Member.Addr && !g.hasLocked(addr) {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

func (g *Group) hasLocked(addr string) bool {
	_, ok := g.members[addr]
	return ok
}

// enqueue hands an event to the notifier ULT.
func (h *Host) enqueue(group string, ev Event) {
	h.qmu.Lock()
	if h.stopped {
		h.qmu.Unlock()
		return
	}
	h.queue = append(h.queue, push{group: group, ev: ev})
	h.qmu.Unlock()
	h.qsem.Release()
}

// notifyLoop drains the push queue: each event fans out to the group's
// members and subscribed observers as ssg_notify RPCs (short timeout —
// an unreachable recipient must not stall churn).
func (h *Host) notifyLoop(self *abt.ULT) {
	for {
		h.qsem.Acquire(self)
		h.qmu.Lock()
		if h.stopped && len(h.queue) == 0 {
			h.qmu.Unlock()
			return
		}
		if len(h.queue) == 0 {
			h.qmu.Unlock()
			continue
		}
		p := h.queue[0]
		h.queue = h.queue[1:]
		h.qmu.Unlock()

		g, ok := h.group(p.group)
		if !ok {
			continue
		}
		args := eventToArgs(p.group, p.ev)
		for _, addr := range g.recipients(p.ev) {
			// Best-effort push: a recipient that cannot be reached will
			// catch up from a later event or an explicit Observe. The
			// timeout keeps one dead observer from stalling the queue.
			_ = h.inst.Forward(self, addr, RPCNotify, &args, nil, margo.ForwardOpts{Timeout: notifyTimeout})
		}
	}
}

// Wire types.

type groupArgs struct {
	Group string
	Addr  string
}

func (a *groupArgs) Proc(p *mercury.Proc) error {
	p.String(&a.Group)
	p.String(&a.Addr)
	return p.Err()
}

type viewResp struct {
	Rank    uint32
	Version uint64
	Ranks   []uint64
	Addrs   []string
}

func (a *viewResp) Proc(p *mercury.Proc) error {
	p.Uint32(&a.Rank)
	p.Uint64(&a.Version)
	p.Uint64Slice(&a.Ranks)
	p.StringSlice(&a.Addrs)
	return p.Err()
}

func viewToResp(rank uint32, v View) viewResp {
	out := viewResp{Rank: rank, Version: v.Version}
	for _, m := range v.Members {
		out.Ranks = append(out.Ranks, uint64(m.Rank))
		out.Addrs = append(out.Addrs, m.Addr)
	}
	return out
}

func respToView(name string, r viewResp) View {
	v := View{Name: name, Version: r.Version}
	for i := range r.Addrs {
		v.Members = append(v.Members, Member{Rank: uint32(r.Ranks[i]), Addr: r.Addrs[i]})
	}
	return v
}

// notifyArgs is one pushed membership delta: the event plus the full
// view after it, so recipients need no follow-up Observe.
type notifyArgs struct {
	Group      string
	Type       uint8
	MemberRank uint32
	MemberAddr string
	View       viewResp
}

func (a *notifyArgs) Proc(p *mercury.Proc) error {
	p.String(&a.Group)
	p.Uint8(&a.Type)
	p.Uint32(&a.MemberRank)
	p.String(&a.MemberAddr)
	return a.View.Proc(p)
}

func eventToArgs(group string, ev Event) notifyArgs {
	return notifyArgs{
		Group:      group,
		Type:       uint8(ev.Type),
		MemberRank: ev.Member.Rank,
		MemberAddr: ev.Member.Addr,
		View:       viewToResp(0, ev.View),
	}
}

func argsToEvent(a *notifyArgs) Event {
	return Event{
		Type:   EventType(a.Type),
		Member: Member{Rank: a.MemberRank, Addr: a.MemberAddr},
		View:   respToView(a.Group, a.View),
	}
}

// Handlers.

func (h *Host) handleJoin(ctx *margo.Context) {
	var in groupArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("ssg: %v", err)
		return
	}
	g, ok := h.group(in.Group)
	if !ok {
		ctx.RespondError("%v: %s", ErrUnknownGroup, in.Group)
		return
	}
	addr := in.Addr
	if addr == "" {
		addr = ctx.Origin()
	}
	rank, v, changed := g.join(addr)
	if changed {
		h.enqueue(g.name, Event{Type: EventJoin, Member: Member{Rank: rank, Addr: addr}, View: v})
	}
	out := viewToResp(rank, v)
	ctx.Respond(&out)
}

func (h *Host) handleLeave(ctx *margo.Context) {
	var in groupArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("ssg: %v", err)
		return
	}
	g, ok := h.group(in.Group)
	if !ok {
		ctx.RespondError("%v: %s", ErrUnknownGroup, in.Group)
		return
	}
	addr := in.Addr
	if addr == "" {
		addr = ctx.Origin()
	}
	v, ok := g.leave(addr)
	if !ok {
		ctx.RespondError("%v: %s", ErrNotMember, addr)
		return
	}
	h.enqueue(g.name, Event{Type: EventLeave, Member: Member{Addr: addr}, View: v})
	ctx.Respond(mercury.Void{})
}

func (h *Host) handleObserve(ctx *margo.Context) {
	var in groupArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("ssg: %v", err)
		return
	}
	g, ok := h.group(in.Group)
	if !ok {
		ctx.RespondError("%v: %s", ErrUnknownGroup, in.Group)
		return
	}
	out := viewToResp(0, g.View())
	ctx.Respond(&out)
}

// handleSubscribe registers the caller (or the address it names) as a
// non-member observer: it receives every subsequent membership delta as
// a pushed ssg_notify RPC.
func (h *Host) handleSubscribe(ctx *margo.Context) {
	var in groupArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("ssg: %v", err)
		return
	}
	g, ok := h.group(in.Group)
	if !ok {
		ctx.RespondError("%v: %s", ErrUnknownGroup, in.Group)
		return
	}
	addr := in.Addr
	if addr == "" {
		addr = ctx.Origin()
	}
	out := viewToResp(0, g.subscribe(addr))
	ctx.Respond(&out)
}

// Client-side operations.

// Client performs group operations against a root.
type Client struct {
	inst *margo.Instance
}

// NewClient wires the SSG RPCs into a Margo instance.
func NewClient(inst *margo.Instance) (*Client, error) {
	if err := inst.RegisterClient(RPCNames()...); err != nil {
		return nil, err
	}
	return &Client{inst: inst}, nil
}

// Join adds this process (or addr, if non-empty) to the group rooted at
// root, returning the assigned rank and the membership view.
func (c *Client) Join(self *abt.ULT, root, group, addr string) (uint32, View, error) {
	var out viewResp
	in := groupArgs{Group: group, Addr: addr}
	if err := c.inst.Forward(self, root, RPCJoin, &in, &out); err != nil {
		return 0, View{}, err
	}
	return out.Rank, respToView(group, out), nil
}

// Leave removes this process (or addr) from the group.
func (c *Client) Leave(self *abt.ULT, root, group, addr string) error {
	in := groupArgs{Group: group, Addr: addr}
	return c.inst.Forward(self, root, RPCLeave, &in, nil)
}

// Observe fetches the group's current membership view without joining —
// the client-side discovery path.
func (c *Client) Observe(self *abt.ULT, root, group string) (View, error) {
	var out viewResp
	in := groupArgs{Group: group}
	if err := c.inst.Forward(self, root, RPCObserve, &in, &out); err != nil {
		return View{}, err
	}
	return respToView(group, out), nil
}

// Subscribe registers this process (or addr) for pushed membership
// deltas without joining, returning the current view. The subscriber
// must be able to service ssg_notify RPCs (see Agent).
func (c *Client) Subscribe(self *abt.ULT, root, group, addr string) (View, error) {
	var out viewResp
	in := groupArgs{Group: group, Addr: addr}
	if err := c.inst.Forward(self, root, RPCSubscribe, &in, &out); err != nil {
		return View{}, err
	}
	return respToView(group, out), nil
}
