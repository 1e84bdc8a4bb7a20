package ssg

import (
	"sync"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
)

// Agent is the participant side of a dynamic group: a process (server
// mode — it must service RPCs) that joins or watches groups rooted
// elsewhere and receives pushed membership deltas. Routing layers
// subscribe to the event stream to refresh their tables without polling
// Observe.
type Agent struct {
	inst *margo.Instance
	cli  *Client

	mu   sync.Mutex
	subs map[string][]func(Event)
}

// NewAgent installs the participant-side SSG RPC (notify) on a Margo
// server instance and returns the agent.
func NewAgent(inst *margo.Instance) (*Agent, error) {
	cli, err := NewClient(inst)
	if err != nil {
		return nil, err
	}
	a := &Agent{inst: inst, cli: cli, subs: make(map[string][]func(Event))}
	if err := inst.Register(RPCNotify, a.handleNotify); err != nil {
		return nil, err
	}
	return a, nil
}

// Client exposes the underlying pull-side client (Observe etc.).
func (a *Agent) Client() *Client { return a.cli }

// Join enters the group rooted at root as this process. Returns the
// assigned rank and the group's view.
func (a *Agent) Join(self *abt.ULT, root, group string) (uint32, View, error) {
	rank, v, err := a.cli.Join(self, root, group, a.inst.Addr())
	if err != nil {
		return 0, View{}, err
	}
	return rank, v, nil
}

// Leave exits the group.
func (a *Agent) Leave(self *abt.ULT, root, group string) error {
	return a.cli.Leave(self, root, group, a.inst.Addr())
}

// Watch subscribes this process for pushed deltas without joining and
// returns the current view.
func (a *Agent) Watch(self *abt.ULT, root, group string) (View, error) {
	return a.cli.Subscribe(self, root, group, a.inst.Addr())
}

// Refresh re-pulls the view from the root (recovery path when pushes
// were missed).
func (a *Agent) Refresh(self *abt.ULT, root, group string) (View, error) {
	return a.cli.Observe(self, root, group)
}

// OnEvent subscribes a callback to the group's pushed membership
// events. Callbacks run on the notify handler ULT, one event at a
// time; each event carries the view it produced.
func (a *Agent) OnEvent(group string, fn func(Event)) {
	a.mu.Lock()
	a.subs[group] = append(a.subs[group], fn)
	a.mu.Unlock()
}

func (a *Agent) handleNotify(ctx *margo.Context) {
	var in notifyArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("ssg: %v", err)
		return
	}
	ev := argsToEvent(&in)
	a.mu.Lock()
	subs := append([]func(Event){}, a.subs[in.Group]...)
	a.mu.Unlock()
	for _, fn := range subs {
		fn(ev)
	}
	ctx.Respond(mercury.Void{})
}
