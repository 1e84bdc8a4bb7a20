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

var componentNames = [NumComponents]string{
	CompOriginExec: "Origin Execution Time",
	CompInputSer:   "Input Serialization Time",
	CompRDMA:       "Target Internal RDMA Transfer Time",
	CompHandler:    "Target ULT Handler Time",
	CompInputDeser: "Input Deserialization Time",
	CompTargetExec: "Target ULT Execution Time (exclusive)",
	CompOutputSer:  "Output Serialization Time",
	CompTargetCB:   "Target ULT Completion Callback Time",
	CompOriginCB:   "Origin Completion Callback Time",
}

// Name returns the Table III interval name.
func (c Component) Name() string { return componentNames[c] }
