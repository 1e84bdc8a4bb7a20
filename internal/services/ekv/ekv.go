// Package ekv is the elastic key-value service: sdskv's storage model
// behind a dynamic membership plane. Nodes join an SSG group; every
// party routes keys with the same rendezvous ring over the group view
// (internal/kv.Ring), so a view change moves only the keys the ring
// says must move. Nodes react to pushed membership deltas by streaming
// the moving ranges to their new owners over the bulk path while
// dual-writing in-flight ops, so a scale-out or scale-in under load
// loses no acked operation (the ISSUE 8 tentpole; protocol in
// DESIGN.md §11).
package ekv

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/kv"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/mercury/pvar"
	"symbiosys/internal/ssg"
)

// Service-level PVARs. Registered through margo.RegisterServicePVar,
// they ride the same session plumbing as the library counters and
// surface in /metrics as symbiosys_pvar_elastic_*.
const (
	PVarKeysMigratedOut     = "elastic_keys_migrated_out"
	PVarKeysMigratedIn      = "elastic_keys_migrated_in"
	PVarMigrationsStarted   = "elastic_migrations_started"
	PVarMigrationsCompleted = "elastic_migrations_completed"
	PVarWrongRoutes         = "elastic_wrong_routes"
	PVarDualWrites          = "elastic_dual_writes"
	PVarReadThroughs        = "elastic_read_throughs"
)

// migrateChunk pairs per bulk push while streaming a moving range.
const migrateChunk = 128

// roundRetryLimit bounds re-runs of a failing rebalance round before
// the node gives up and relies on residual grace serving + read-through
// for correctness.
const roundRetryLimit = 10

// Node is one elastic KV node: a storage provider plus the membership
// agent and migration engine.
type Node struct {
	inst  *margo.Instance
	agent *ssg.Agent
	root  string
	group string
	db    kv.DB

	// mu guards the routing state. It is never held across a Forward —
	// handlers snapshot under the lock, release, then act. The inbound
	// migration handlers (peer_put, migrate_push) do hold it across
	// their local db writes: that orders them against Retire's
	// set-retiring, so a handoff can never slip in behind a retiring
	// node's final sweep and strand acked pairs.
	mu        sync.Mutex
	ring      *kv.Ring
	lastRound uint64            // newest ring version fully rebalanced
	doneFrom  map[string]uint64 // peer addr -> newest round it settled
	dirty     map[string]uint64 // key -> round of last direct/dual write here
	retiring  bool
	closed    bool

	sem    *abt.Semaphore // kicks the rebalance worker
	worker *abt.ULT

	// Lifetime counters, exported as service PVARs.
	keysOut      atomic.Uint64
	keysIn       atomic.Uint64
	migStarted   atomic.Uint64
	migCompleted atomic.Uint64
	wrongRoutes  atomic.Uint64
	dualWrites   atomic.Uint64
	readThroughs atomic.Uint64
}

// NewNode installs an elastic KV node on a Margo server. root is the
// address of the SSG host rooting the group; the node does not join
// until Join is called (so a cluster can start all processes before
// churning membership). The node hands its shards off automatically
// when its instance drains.
func NewNode(inst *margo.Instance, root, group string) (*Node, error) {
	agent, err := ssg.NewAgent(inst)
	if err != nil {
		return nil, err
	}
	db, err := kv.Open("shardedmap", "ekv-"+inst.Addr())
	if err != nil {
		return nil, err
	}
	n := &Node{
		inst: inst, agent: agent, root: root, group: group, db: db,
		doneFrom: make(map[string]uint64),
		dirty:    make(map[string]uint64),
	}
	handlers := map[string]margo.HandlerFunc{
		RPCPut:         n.handlePut,
		RPCGet:         n.handleGet,
		RPCPeerPut:     n.handlePeerPut,
		RPCPeerGet:     n.handlePeerGet,
		RPCMigratePush: n.handleMigratePush,
		RPCMigrateDone: n.handleMigrateDone,
	}
	for name, fn := range handlers {
		if err := inst.Register(name, fn); err != nil {
			return nil, err
		}
	}
	// Peer ops are idempotent (puts are last-writer-wins overwrites,
	// pushes are dirty-guarded snapshots), so timed-out forwards may be
	// re-issued by the margo retry machinery.
	if err := inst.RegisterClientIdempotent(PeerRPCNames()...); err != nil {
		return nil, err
	}
	for _, pv := range []struct {
		name, desc string
		read       func() uint64
	}{
		{PVarKeysMigratedOut, "keys streamed out to new owners during rebalancing", n.keysOut.Load},
		{PVarKeysMigratedIn, "keys received from old owners during rebalancing", n.keysIn.Load},
		{PVarMigrationsStarted, "rebalance rounds started", n.migStarted.Load},
		{PVarMigrationsCompleted, "rebalance rounds completed", n.migCompleted.Load},
		{PVarWrongRoutes, "client ops redirected for routing with a stale view", n.wrongRoutes.Load},
		{PVarDualWrites, "stale-routed writes served locally and forwarded to the owner", n.dualWrites.Load},
		{PVarReadThroughs, "owner-side misses resolved by asking pending donors", n.readThroughs.Load},
	} {
		if err := inst.RegisterServicePVar(pv.name, pv.desc, pvar.ClassCounter, pv.read); err != nil {
			return nil, err
		}
	}
	n.sem = abt.NewSemaphore(1)
	n.sem.Acquire(nil) // start with zero permits: pure kick queue
	n.worker = inst.Run("ekv-rebalance", n.rebalanceLoop)
	n.agent.OnEvent(group, n.onEvent)
	inst.OnDrain(n.drainHook)
	return n, nil
}

// Addr returns the node's fabric address.
func (n *Node) Addr() string { return n.inst.Addr() }

// Len reports the local pair count (validation path).
func (n *Node) Len() int { return n.db.Len() }

// Settled reports whether the node has fully rebalanced its newest ring
// (a retired node is trivially settled — it owes nothing).
func (n *Node) Settled() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.retiring || n.closed {
		return true
	}
	return n.ring != nil && n.lastRound >= n.ring.Version()
}

// Stats is a snapshot of the node's lifetime migration counters.
type Stats struct {
	KeysMigratedOut     uint64
	KeysMigratedIn      uint64
	MigrationsStarted   uint64
	MigrationsCompleted uint64
	WrongRoutes         uint64
	DualWrites          uint64
	ReadThroughs        uint64
}

// Stats reports the node's migration counters.
func (n *Node) Stats() Stats {
	return Stats{
		KeysMigratedOut:     n.keysOut.Load(),
		KeysMigratedIn:      n.keysIn.Load(),
		MigrationsStarted:   n.migStarted.Load(),
		MigrationsCompleted: n.migCompleted.Load(),
		WrongRoutes:         n.wrongRoutes.Load(),
		DualWrites:          n.dualWrites.Load(),
		ReadThroughs:        n.readThroughs.Load(),
	}
}

// Join enters the service group and installs the first ring.
func (n *Node) Join(self *abt.ULT) error {
	_, v, err := n.agent.Join(self, n.root, n.group)
	if err != nil {
		return err
	}
	n.applyView(v)
	return nil
}

// onEvent reacts to a pushed membership delta: install the new ring and
// kick the rebalance worker. Suspicion changes nothing (the member is
// still in the view); join/leave/fail all carry a new view.
func (n *Node) onEvent(ev ssg.Event) {
	if ev.Type == ssg.EventSuspect {
		return
	}
	n.applyView(ev.View)
}

// applyView swaps in a ring built from a (possibly newer) view.
func (n *Node) applyView(v ssg.View) {
	n.mu.Lock()
	if n.retiring || n.closed || (n.ring != nil && v.Version <= n.ring.Version()) {
		n.mu.Unlock()
		return
	}
	n.ring = kv.NewRing(v.Version, v.Addrs())
	n.mu.Unlock()
	n.sem.Release()
}

// route snapshots the routing state for one request.
func (n *Node) route(key []byte) (owner string, version uint64, unsettled bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ring == nil {
		return "", 0, false
	}
	owner = n.ring.Owner(key)
	version = n.ring.Version()
	// Unsettled: a rebalance round is pending or running, or the node is
	// shedding its shards. Stale-routed writes are served with a
	// dual-write during this window instead of being redirected.
	unsettled = n.retiring || n.lastRound < version
	return owner, version, unsettled
}

// markDirty records a direct or dual write landing at this node during
// an unsettled round, so a migrated snapshot of the same key cannot
// clobber it.
func (n *Node) markDirty(key []byte, version uint64) {
	n.mu.Lock()
	if v, ok := n.dirty[string(key)]; !ok || version > v {
		n.dirty[string(key)] = version
	}
	n.mu.Unlock()
}

// pendingDonors lists peers that have not yet declared round `version`
// settled — an owner-side miss may still be in their residual state.
func (n *Node) pendingDonors(version uint64) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ring == nil {
		return nil
	}
	var out []string
	for _, m := range n.ring.Members() {
		if m == n.inst.Addr() {
			continue
		}
		if n.doneFrom[m] < version {
			out = append(out, m)
		}
	}
	return out
}

// Client-facing handlers.

func (n *Node) handlePut(ctx *margo.Context) {
	call := putCalls.Get()
	defer putCalls.Put(call)
	in := &call.in
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("ekv: %v", err)
		return
	}
	owner, version, unsettled := n.route(in.Key)
	call.out = opResp{Status: statusOK}
	switch {
	case owner == n.inst.Addr():
		if err := n.db.Put(in.Key, in.Value); err != nil {
			ctx.RespondError("ekv: put: %v", err)
			return
		}
		if unsettled {
			n.markDirty(in.Key, version)
		}
	case owner != "" && unsettled:
		// Stale-routed write mid-migration: serve it rather than bounce
		// the client — store locally (residual grace for readers still
		// routed here) and synchronously dual-write to the owner before
		// acking, so the ack never depends on state only this node holds.
		if err := n.db.Put(in.Key, in.Value); err != nil {
			ctx.RespondError("ekv: put: %v", err)
			return
		}
		in.Version = version
		if err := ctx.Forward(owner, RPCPeerPut, in, nil); err != nil {
			// Owner unreachable: do not ack a write we may not be able
			// to hand off. Redirect; the client refreshes and retries.
			n.wrongRoutes.Add(1)
			call.out.Status = statusWrongOwner
		} else {
			n.dualWrites.Add(1)
		}
	default:
		n.wrongRoutes.Add(1)
		call.out.Status = statusWrongOwner
	}
	ctx.Respond(&call.out)
}

func (n *Node) handleGet(ctx *margo.Context) {
	call := getCalls.Get()
	defer getCalls.Put(call)
	in := &call.in
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("ekv: %v", err)
		return
	}
	// Residual grace: whatever the ring says, a locally held value is
	// served — mid-migration the old owner keeps answering for keys it
	// still holds, so stale-routed readers never stall on a handoff. The
	// value is copied into the request's scratch, which Respond has
	// encoded by the time it returns.
	v, found, err := n.db.AppendGet(ctx.Scratch(0), in.Key)
	if err != nil {
		ctx.RespondError("ekv: get: %v", err)
		return
	}
	owner, version, _ := n.route(in.Key)
	call.out = getResp{Status: statusOK, Found: found, Value: v}
	switch {
	case found:
	case owner != n.inst.Addr():
		n.wrongRoutes.Add(1)
		call.out.Status = statusWrongOwner
	default:
		// Owner-side miss while donors are still streaming: the pair may
		// be in flight. Read through to every peer that has not settled
		// this round yet; first hit wins. The reply copies the hit out of
		// the peer's response frame into the scratch the miss left empty.
		peer := peerGetCalls.Get()
		defer peerGetCalls.Put(peer)
		peer.in.Key = in.Key
		for _, donor := range n.pendingDonors(version) {
			peer.out.Value = v[:0]
			if err := ctx.Forward(donor, RPCPeerGet, &peer.in, &peer.out); err != nil {
				continue
			}
			if peer.out.Found {
				n.readThroughs.Add(1)
				call.out.Found, call.out.Value = true, peer.out.Value
				break
			}
		}
	}
	ctx.Respond(&call.out)
}

// Peer handlers (migration protocol).

func (n *Node) handlePeerPut(ctx *margo.Context) {
	call := putCalls.Get()
	defer putCalls.Put(call)
	in := &call.in
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("ekv: %v", err)
		return
	}
	// A retiring node refuses handoffs: accepting one after its final
	// sweep would strand the pair on a departing member while the sender
	// acks the client. The sender redirects instead.
	n.mu.Lock()
	if n.retiring || n.closed {
		n.mu.Unlock()
		ctx.RespondError("ekv: node retiring")
		return
	}
	// A dual-written value is authoritative: apply and mark dirty so a
	// slower migrated snapshot of the same key is discarded. Both happen
	// under mu so they order against Retire's set-retiring.
	if v, ok := n.dirty[string(in.Key)]; !ok || in.Version > v {
		n.dirty[string(in.Key)] = in.Version
	}
	err := n.db.Put(in.Key, in.Value)
	n.mu.Unlock()
	if err != nil {
		ctx.RespondError("ekv: peer put: %v", err)
		return
	}
	ctx.Respond(mercury.Void{})
}

func (n *Node) handlePeerGet(ctx *margo.Context) {
	call := peerGetCalls.Get()
	defer peerGetCalls.Put(call)
	if err := ctx.GetInput(&call.in); err != nil {
		ctx.RespondError("ekv: %v", err)
		return
	}
	v, found, err := n.db.AppendGet(ctx.Scratch(0), call.in.Key)
	if err != nil {
		ctx.RespondError("ekv: peer get: %v", err)
		return
	}
	call.out = peerGetResp{Found: found, Value: v}
	ctx.Respond(&call.out)
}

// probeAbove is the largest pull a receiver sizes its scratch for on the
// strength of the request alone.
const probeAbove = 1 << 20

func (n *Node) handleMigratePush(ctx *margo.Context) {
	var in migratePushArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("ekv: %v", err)
		return
	}
	// The chunk lands in the request's scratch buffer and decodes as
	// views of it; db.Put copies each applied pair out. Size and the
	// region's length come off the wire: the chunk must fit the length the
	// descriptor claims, and a pull over probeAbove first reads its last
	// byte, so the fabric, which knows the region's real length, refuses
	// it before the scratch is sized by it.
	if in.Size > uint64(max(in.Bulk.Size(), 0)) {
		ctx.RespondError("ekv: migrate chunk of %d bytes does not fit its %d-byte bulk region", in.Size, in.Bulk.Size())
		return
	}
	if in.Size > probeAbove {
		if err := ctx.BulkPull(in.Bulk, int(in.Size)-1, ctx.Scratch(1)); err != nil {
			ctx.RespondError("ekv: migrate chunk of %d bytes: %v", in.Size, err)
			return
		}
	}
	buf := ctx.Scratch(int(in.Size))
	if err := ctx.BulkPull(in.Bulk, 0, buf); err != nil {
		ctx.RespondError("ekv: migrate pull: %v", err)
		return
	}
	var pairs packedPairs
	if err := mercury.Decode(buf, &pairs); err != nil {
		ctx.RespondError("ekv: migrate unpack: %v", err)
		return
	}
	if len(pairs.Keys) != len(pairs.Values) || uint32(len(pairs.Keys)) != in.NumPairs {
		ctx.RespondError("ekv: migrate chunk shape mismatch")
		return
	}
	// Refuse the chunk outright when retiring: an ack here would let the
	// donor delete pairs this node is about to walk away from. The whole
	// apply runs under mu so it orders against Retire's set-retiring and
	// cannot land behind the retiring node's final sweep.
	n.mu.Lock()
	if n.retiring || n.closed {
		n.mu.Unlock()
		ctx.RespondError("ekv: node retiring")
		return
	}
	applied := uint64(0)
	var applyErr error
	for i := range pairs.Keys {
		// Dirty-guard: a key directly or dual-written here during this
		// round is newer than any snapshot a donor streamed.
		if n.dirty[string(pairs.Keys[i])] >= in.Version {
			continue
		}
		if applyErr = n.db.Put(pairs.Keys[i], pairs.Values[i]); applyErr != nil {
			break
		}
		applied++
	}
	n.mu.Unlock()
	if applyErr != nil {
		ctx.RespondError("ekv: migrate apply: %v", applyErr)
		return
	}
	n.keysIn.Add(applied)
	ctx.Respond(mercury.Void{})
}

func (n *Node) handleMigrateDone(ctx *margo.Context) {
	var in migrateDoneArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("ekv: %v", err)
		return
	}
	n.mu.Lock()
	if n.doneFrom[in.From] < in.Version {
		n.doneFrom[in.From] = in.Version
	}
	// Settlement: once every current peer has declared this round done,
	// no snapshot for it is still in flight — the dirty set for the
	// round can be dropped.
	if n.ring != nil {
		settled, version := true, n.ring.Version()
		for _, m := range n.ring.Members() {
			if m != n.inst.Addr() && n.doneFrom[m] < version {
				settled = false
				break
			}
		}
		if settled {
			for k, v := range n.dirty {
				if v <= version {
					delete(n.dirty, k)
				}
			}
		}
	}
	n.mu.Unlock()
	ctx.Respond(mercury.Void{})
}

// Rebalancing.

// rebalanceLoop is the migration engine: each kick re-runs rounds until
// the newest ring version is fully streamed and settled. A failing
// round (unreachable peer) is retried with backoff up to
// roundRetryLimit, then abandoned — residual grace serving and
// read-through keep the data reachable even when a handoff cannot
// complete.
func (n *Node) rebalanceLoop(self *abt.ULT) {
	attempts := 0
	for {
		n.sem.Acquire(self)
		for {
			n.mu.Lock()
			if n.closed || n.retiring {
				n.mu.Unlock()
				if n.closed {
					return
				}
				break
			}
			r := n.ring
			if r == nil || n.lastRound >= r.Version() {
				n.mu.Unlock()
				break
			}
			n.mu.Unlock()
			if n.runRound(self, r) {
				n.mu.Lock()
				if n.lastRound < r.Version() {
					n.lastRound = r.Version()
				}
				n.mu.Unlock()
				attempts = 0
				continue
			}
			attempts++
			if attempts >= roundRetryLimit {
				n.mu.Lock()
				if n.lastRound < r.Version() {
					n.lastRound = r.Version()
				}
				n.mu.Unlock()
				attempts = 0
				continue
			}
			self.Sleep(2 * time.Millisecond)
		}
	}
}

// runRound streams every locally held pair the ring assigns elsewhere
// to its owner, then broadcasts the round-done marker. Scanning repeats
// until a sweep finds nothing to move (writes landing mid-round are
// picked up by the next sweep). Reports whether the round fully
// succeeded.
func (n *Node) runRound(self *abt.ULT, r *kv.Ring) bool {
	n.migStarted.Add(1)
	ok := true
	for sweep := 0; sweep < 8; sweep++ {
		moved, err := n.sweepOnce(self, r)
		if err != nil {
			ok = false
			break
		}
		if moved == 0 {
			break
		}
	}
	if !ok {
		// A failed sweep means misplaced pairs may still sit here. Do NOT
		// claim the round done — owners would stop reading through to us
		// while we still hold their keys. The retry re-sweeps first.
		return false
	}
	// Round-done markers go to every member — even after a zero-key
	// round — so owners can retire their read-through fan-out to us.
	done := migrateDoneArgs{Version: r.Version(), From: n.inst.Addr()}
	for _, m := range r.Members() {
		if m == n.inst.Addr() {
			continue
		}
		if err := n.inst.ForwardEx(self, m, RPCMigrateDone, &done, nil, margo.ForwardOpts{Timeout: time.Second}); err != nil {
			ok = false
		}
	}
	if ok {
		n.migCompleted.Add(1)
	}
	return ok
}

// sweepOnce scans the local store and streams one batch of misplaced
// pairs per destination, deleting local copies only after the
// destination acked the chunk. Returns how many pairs moved.
func (n *Node) sweepOnce(self *abt.ULT, r *kv.Ring) (int, error) {
	pairs, _, err := n.db.AppendList(nil, nil, nil, n.db.Len()+migrateChunk)
	if err != nil {
		return 0, err
	}
	byDest := make(map[string]*packedPairs)
	selfAddr := n.inst.Addr()
	for _, pr := range pairs {
		dest := r.Owner(pr.Key)
		if dest == selfAddr || dest == "" {
			continue
		}
		c := byDest[dest]
		if c == nil {
			c = &packedPairs{}
			byDest[dest] = c
		}
		c.Keys = append(c.Keys, pr.Key)
		c.Values = append(c.Values, pr.Value)
	}
	moved := 0
	for dest, all := range byDest {
		for off := 0; off < len(all.Keys); off += migrateChunk {
			end := off + migrateChunk
			if end > len(all.Keys) {
				end = len(all.Keys)
			}
			chunk := packedPairs{Keys: all.Keys[off:end], Values: all.Values[off:end]}
			if err := n.pushChunk(self, dest, r.Version(), &chunk); err != nil {
				return moved, err
			}
			// Acked: the destination holds the pairs (or newer dual-
			// written values). Drop the residual copies.
			for _, k := range chunk.Keys {
				if _, err := n.db.Delete(k); err != nil {
					return moved, err
				}
			}
			moved += len(chunk.Keys)
			n.keysOut.Add(uint64(len(chunk.Keys)))
		}
	}
	return moved, nil
}

// pushChunk ships one packed chunk over the bulk path.
func (n *Node) pushChunk(self *abt.ULT, dest string, version uint64, chunk *packedPairs) error {
	buf, err := mercury.Encode(chunk)
	if err != nil {
		return err
	}
	bulk := n.inst.BulkCreate(buf)
	defer n.inst.BulkFree(bulk)
	args := migratePushArgs{
		Version:  version,
		NumPairs: uint32(len(chunk.Keys)),
		Bulk:     bulk,
		Size:     uint64(len(buf)),
	}
	return n.inst.Forward(self, dest, RPCMigratePush, &args, nil)
}

// Scale-in.

// Retire hands every locally held pair to the surviving members and
// leaves the group: the controlled scale-in path. After Retire the node
// answers every routed op with a redirect. Safe to call at most once;
// subsequent calls are no-ops.
func (n *Node) Retire(self *abt.ULT) error {
	n.mu.Lock()
	if n.retiring || n.closed {
		n.mu.Unlock()
		return nil
	}
	n.retiring = true
	r := n.ring
	var shrunk *kv.Ring
	var rest []string
	if r != nil && r.Has(n.inst.Addr()) {
		// Route by the survivor set immediately, atomically with the
		// retiring flag: our own view of the ring drops self before the
		// root even processes the leave, so no op routed here after this
		// point sees this node as owner — it dual-writes outward or
		// redirects instead.
		rest = make([]string, 0, r.Size()-1)
		for _, m := range r.Members() {
			if m != n.inst.Addr() {
				rest = append(rest, m)
			}
		}
		shrunk = kv.NewRing(r.Version()+1, rest)
		n.ring = shrunk
	}
	n.mu.Unlock()
	if shrunk == nil {
		return n.agent.Leave(self, n.root, n.group)
	}

	// Stream everything out. A failed sweep usually means a push target
	// itself left or began retiring after our snapshot — refresh the
	// membership from the root, recompute the survivor ring, and retry,
	// so cascaded scale-ins hand off along the live chain instead of
	// pushing at ghosts. Data is left behind only if survivors stay
	// persistently unreachable through every retry — the same bar a
	// crashed node sets, and the reason Drain invokes this while the
	// endpoint can still forward.
	var lastErr error
	failures := 0
	for attempt := 0; attempt < 10*roundRetryLimit; attempt++ {
		moved, err := n.sweepOnce(self, shrunk)
		if err == nil {
			lastErr = nil
			if moved == 0 {
				break
			}
			failures = 0
			continue
		}
		lastErr = err
		failures++
		if failures >= roundRetryLimit {
			break
		}
		if v, rerr := n.agent.Refresh(self, n.root, n.group); rerr == nil {
			rest = rest[:0]
			for _, m := range v.Addrs() {
				if m != n.inst.Addr() {
					rest = append(rest, m)
				}
			}
			if len(rest) > 0 {
				shrunk = kv.NewRing(v.Version+1, rest)
				n.mu.Lock()
				n.ring = shrunk
				n.mu.Unlock()
			}
		}
		self.Sleep(2 * time.Millisecond)
	}
	if lastErr != nil && n.db.Len() > 0 {
		// The handoff did not complete: keep group membership (and the
		// read-through path to us) alive rather than walking away with
		// acked pairs. The caller may retry or escalate.
		n.mu.Lock()
		n.retiring = false
		n.mu.Unlock()
		return lastErr
	}
	done := migrateDoneArgs{Version: shrunk.Version(), From: n.inst.Addr()}
	for _, m := range shrunk.Members() {
		_ = n.inst.ForwardEx(self, m, RPCMigrateDone, &done, nil, margo.ForwardOpts{Timeout: time.Second})
	}
	if err := n.agent.Leave(self, n.root, n.group); err != nil && lastErr == nil {
		lastErr = err
	}
	return lastErr
}

// drainHook is the margo OnDrain hook: a node drained mid-migration
// hands off its shards (including any in-flight transfer residue)
// instead of stranding them. Runs on the draining goroutine; the
// handoff itself needs a ULT for its forwards.
func (n *Node) drainHook(ctx context.Context) error {
	var err error
	u := n.inst.Run("ekv-drain-handoff", func(self *abt.ULT) {
		err = n.Retire(self)
	})
	join := make(chan struct{})
	go func() { u.Join(nil); close(join) }()
	select {
	case <-join:
	case <-ctx.Done():
		return fmt.Errorf("ekv: drain handoff interrupted: %w", ctx.Err())
	}
	n.stopWorker()
	return err
}

// stopWorker terminates the rebalance ULT.
func (n *Node) stopWorker() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.sem.Release()
	n.worker.Join(nil)
}

// Close stops the rebalance worker and the local store. The margo
// instance is not touched.
func (n *Node) Close() error {
	n.stopWorker()
	return n.db.Close()
}
