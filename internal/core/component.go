package core

// Component identifies one interval of the Mochi RPC timeline (paper
// Figure 2 and Table III). Origin-side components are measured on the
// process that issued the RPC, target-side components on the process
// that serviced it.
type Component int

// RPC timeline components, in Table III order.
const (
	// CompOriginExec is the origin execution time, t1→t14 (ULT-local).
	CompOriginExec Component = iota
	// CompInputSer is the input serialization time, t2→t3 (PVAR).
	CompInputSer
	// CompRDMA is the target internal RDMA transfer time, t3→t4 (PVAR).
	CompRDMA
	// CompHandler is the target ULT handler time, t4→t5 (ULT-local):
	// the wait in the Argobots pool before an ES picks the ULT up.
	CompHandler
	// CompInputDeser is the input deserialization time, t6→t7 (PVAR).
	CompInputDeser
	// CompTargetExec is the target ULT execution time (exclusive),
	// t5→t8 (ULT-local).
	CompTargetExec
	// CompOutputSer is the output serialization time, t9→t10 (PVAR).
	CompOutputSer
	// CompTargetCB is the target ULT completion callback time, t8→t13
	// (ULT-local).
	CompTargetCB
	// CompOriginCB is the origin completion callback time, t12→t14
	// (PVAR).
	CompOriginCB

	// NumComponents sizes per-callpath component arrays.
	NumComponents
)

type componentInfo struct {
	name  string
	start string
	end   string
}

var componentTable = [NumComponents]componentInfo{
	CompOriginExec: {"Origin Execution Time", "t1", "t14"},
	CompInputSer:   {"Input Serialization Time", "t2", "t3"},
	CompRDMA:       {"Target Internal RDMA Transfer Time", "t3", "t4"},
	CompHandler:    {"Target ULT Handler Time", "t4", "t5"},
	CompInputDeser: {"Input Deserialization Time", "t6", "t7"},
	CompTargetExec: {"Target ULT Execution Time (exclusive)", "t5", "t8"},
	CompOutputSer:  {"Output Serialization Time", "t9", "t10"},
	CompTargetCB:   {"Target ULT Completion Callback Time", "t8", "t13"},
	CompOriginCB:   {"Origin Completion Callback Time", "t12", "t14"},
}

// Name returns the Table III interval name.
func (c Component) Name() string { return componentTable[c].name }

// Interval returns the (start, end) timeline labels, e.g. ("t4", "t5").
func (c Component) Interval() (string, string) {
	return componentTable[c].start, componentTable[c].end
}

// Components lists all components in Table III order.
func Components() []Component {
	out := make([]Component, NumComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}
