package ekv

import "symbiosys/internal/mercury"

// RPC names exported by an elastic KV node. A node judges every
// client-facing op against its own ring and answers a stale-routed one
// with statusWrongOwner (or serves it, mid-migration); peer ops implement
// the migration protocol (§DESIGN 11.3).
const (
	RPCPut         = "ekv_put_rpc"
	RPCGet         = "ekv_get_rpc"
	RPCPeerPut     = "ekv_peer_put_rpc"
	RPCPeerGet     = "ekv_peer_get_rpc"
	RPCMigratePush = "ekv_migrate_push_rpc"
	RPCMigrateDone = "ekv_migrate_done_rpc"
)

// ClientRPCNames lists the client-facing RPCs.
func ClientRPCNames() []string { return []string{RPCPut, RPCGet} }

// PeerRPCNames lists the node-to-node migration RPCs.
func PeerRPCNames() []string {
	return []string{RPCPeerPut, RPCPeerGet, RPCMigratePush, RPCMigrateDone}
}

// Op statuses. A wrong-owner reply is a routing redirect, not a
// failure: the client refreshes its view and retries the new owner.
const (
	statusOK         = uint8(0)
	statusWrongOwner = uint8(1)
)

type putArgs struct {
	Key     []byte
	Value   []byte
	Version uint64 // on a peer put: the forwarding node's ring version
}

func (a *putArgs) Proc(p *mercury.Proc) error {
	p.Bytes(&a.Key)
	p.Bytes(&a.Value)
	p.Uint64(&a.Version)
	return p.Err()
}

type opResp struct {
	Status uint8
}

func (a *opResp) Proc(p *mercury.Proc) error { return p.Uint8(&a.Status) }

type getArgs struct {
	Key []byte
}

func (a *getArgs) Proc(p *mercury.Proc) error { return p.Bytes(&a.Key) }

type getResp struct {
	Status uint8
	Found  bool
	Value  []byte
}

func (a *getResp) Proc(p *mercury.Proc) error {
	p.Uint8(&a.Status)
	p.Bool(&a.Found)
	return procValue(p, &a.Value)
}

// procValue processes the value of a get reply. The sender encodes it as
// it is; the receiver copies it out of the response frame, which is
// recycled before Forward returns, appending it to *v — nil, or the
// buffer the caller wants it in.
func procValue(p *mercury.Proc, v *[]byte) error {
	if p.Op() == mercury.OpEncode {
		return p.Bytes(v)
	}
	var view []byte
	if err := p.Bytes(&view); err != nil {
		return err
	}
	*v = append(*v, view...)
	return nil
}

type peerGetArgs struct {
	Key []byte
}

func (a *peerGetArgs) Proc(p *mercury.Proc) error {
	p.Bytes(&a.Key)
	return p.Err()
}

type peerGetResp struct {
	Found bool
	Value []byte
}

func (a *peerGetResp) Proc(p *mercury.Proc) error {
	p.Bool(&a.Found)
	return procValue(p, &a.Value)
}

// migratePushArgs ships one chunk of a moving range: the pairs are
// packed into one buffer exposed for the destination's bulk pull —
// the same one-sided path the sdskv put_packed hot path uses.
type migratePushArgs struct {
	Version  uint64 // rebalance round (ring version) this chunk belongs to
	NumPairs uint32
	Bulk     mercury.Bulk
	Size     uint64
}

func (a *migratePushArgs) Proc(p *mercury.Proc) error {
	p.Uint64(&a.Version)
	p.Uint32(&a.NumPairs)
	a.Bulk.Proc(p)
	p.Uint64(&a.Size)
	return p.Err()
}

// packedPairs is the bulk payload of one migration chunk.
type packedPairs struct {
	Keys   [][]byte
	Values [][]byte
}

func (a *packedPairs) Proc(p *mercury.Proc) error {
	p.BytesSlice(&a.Keys)
	p.BytesSlice(&a.Values)
	return p.Err()
}

// migrateDoneArgs is the round-settlement marker: the sender has
// finished streaming everything it owed for ring version Version.
// Every member sends one to every other member each round — including
// zero-key rounds — so receivers can retire their read-through fan-out.
type migrateDoneArgs struct {
	Version uint64
	From    string
}

func (a *migrateDoneArgs) Proc(p *mercury.Proc) error {
	p.Uint64(&a.Version)
	p.String(&a.From)
	return p.Err()
}
