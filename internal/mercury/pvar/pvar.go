// Package pvar implements the performance-variable (PVAR) interface that
// SYMBIOSYS adds to the Mercury RPC library, modeled on the MPI Tools
// Information Interface (MPI_T). A PVAR is a named, typed performance
// metric exported by the communication library; external tools discover
// and sample PVARs through sessions without the library shipping data to
// them (paper §IV-B, Tables I and II).
//
// Two concepts organize the space:
//
//   - Class: what kind of quantity the PVAR is (Table I) — a state, a
//     monotonically increasing counter, an interval timer, a resource
//     utilization level, a size, or a high/low watermark.
//   - Binding: the scope of the PVAR (paper §IV-B1). NoObject PVARs are
//     library-global (e.g. the completion-queue length); Handle PVARs
//     live on an individual RPC handle and vanish when it completes
//     (e.g. the input serialization time of one call).
//
// The sampling flow mirrors the paper: initialize a session, query the
// exported variables, allocate handles for the ones of interest, sample
// them (supplying the bound object for Handle-bound PVARs), then free
// the handles and finalize the session.
package pvar

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Class categorizes a PVAR (paper Table I).
type Class int

// PVAR classes.
const (
	// ClassState represents any one of a set of discrete states.
	ClassState Class = iota
	// ClassCounter is a monotonically increasing value.
	ClassCounter
	// ClassTimer is an interval event timer (nanoseconds).
	ClassTimer
	// ClassLevel represents the utilization level of a resource.
	ClassLevel
	// ClassSize represents the size of a resource.
	ClassSize
	// ClassHighWatermark is the highest recorded value of a metric.
	ClassHighWatermark
	// ClassLowWatermark is the lowest recorded value of a metric.
	ClassLowWatermark
)

// String returns the Table I spelling of the class.
func (c Class) String() string {
	switch c {
	case ClassState:
		return "STATE"
	case ClassCounter:
		return "COUNTER"
	case ClassTimer:
		return "TIMER"
	case ClassLevel:
		return "LEVEL"
	case ClassSize:
		return "SIZE"
	case ClassHighWatermark:
		return "HIGHWATERMARK"
	case ClassLowWatermark:
		return "LOWWATERMARK"
	default:
		return fmt.Sprintf("CLASS(%d)", int(c))
	}
}

// Binding scopes a PVAR to the library or to an RPC handle.
type Binding int

// PVAR bindings.
const (
	// BindNoObject marks library-global PVARs.
	BindNoObject Binding = iota
	// BindHandle marks PVARs bound to an individual RPC handle; sampling
	// them requires passing that handle.
	BindHandle
)

// String returns the paper's spelling of the binding.
func (b Binding) String() string {
	if b == BindHandle {
		return "HANDLE"
	}
	return "NO_OBJECT"
}

// Errors returned by the PVAR interface.
var (
	ErrUnknownPVar    = errors.New("pvar: unknown variable")
	ErrNeedBoundObj   = errors.New("pvar: handle-bound variable requires a bound object")
	ErrWrongBoundObj  = errors.New("pvar: bound object does not export this variable")
	ErrSessionClosed  = errors.New("pvar: session finalized")
	ErrHandleFreed    = errors.New("pvar: handle freed")
	ErrNoObjectBound  = errors.New("pvar: variable is library-global; do not pass an object")
	ErrHandleMismatch = errors.New("pvar: handle belongs to a different session")
)

// Info describes one exported PVAR.
type Info struct {
	Index       int
	Name        string
	Description string
	Class       Class
	Binding     Binding
}

// HandleReader reads a handle-bound PVAR off the bound object. The
// object is whatever the exporting library associates per-RPC (Mercury
// passes its *Handle); the reader reports ok=false if the object does
// not carry this variable.
type HandleReader func(obj any) (value uint64, ok bool)

// GlobalReader reads a library-global PVAR.
type GlobalReader func() uint64

type variable struct {
	info   Info
	global GlobalReader
	bound  HandleReader
}

// Registry is the set of PVARs exported by one library instance. The
// exporting library registers variables at initialization; tools access
// them through sessions.
type Registry struct {
	mu       sync.RWMutex
	vars     []*variable
	byName   map[string]int
	sessions atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// RegisterGlobal exports a library-global (NO_OBJECT) PVAR.
func (r *Registry) RegisterGlobal(name, desc string, class Class, read GlobalReader) {
	r.register(Info{Name: name, Description: desc, Class: class, Binding: BindNoObject},
		&variable{global: read})
}

// RegisterHandle exports a handle-bound PVAR.
func (r *Registry) RegisterHandle(name, desc string, class Class, read HandleReader) {
	r.register(Info{Name: name, Description: desc, Class: class, Binding: BindHandle},
		&variable{bound: read})
}

func (r *Registry) register(info Info, v *variable) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[info.Name]; dup {
		panic(fmt.Sprintf("pvar: duplicate variable %q", info.Name))
	}
	info.Index = len(r.vars)
	v.info = info
	r.vars = append(r.vars, v)
	r.byName[info.Name] = info.Index
}

// Session is a tool's connection to the PVAR interface, the analogue of
// the paper's session_handle.
type Session struct {
	reg    *Registry
	closed atomic.Bool

	mu      sync.Mutex
	handles map[*Handle]struct{}
}

// InitSession starts a sampling session.
func (r *Registry) InitSession() *Session {
	r.sessions.Add(1)
	return &Session{
		reg:     r,
		handles: make(map[*Handle]struct{}),
	}
}

// Query lists all exported PVARs, sorted by index.
func (s *Session) Query() ([]Info, error) {
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	s.reg.mu.RLock()
	defer s.reg.mu.RUnlock()
	out := make([]Info, len(s.reg.vars))
	for i, v := range s.reg.vars {
		out[i] = v.info
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, nil
}

// Lookup finds a PVAR by name.
func (s *Session) Lookup(name string) (Info, error) {
	if s.closed.Load() {
		return Info{}, ErrSessionClosed
	}
	s.reg.mu.RLock()
	defer s.reg.mu.RUnlock()
	idx, ok := s.reg.byName[name]
	if !ok {
		return Info{}, fmt.Errorf("%w: %s", ErrUnknownPVar, name)
	}
	return s.reg.vars[idx].info, nil
}

// Handle is an allocated accessor for one PVAR within a session.
type Handle struct {
	session *Session
	v       *variable
	freed   atomic.Bool
}

// AllocHandle allocates a sampling handle for the PVAR at index.
func (s *Session) AllocHandle(index int) (*Handle, error) {
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	s.reg.mu.RLock()
	if index < 0 || index >= len(s.reg.vars) {
		s.reg.mu.RUnlock()
		return nil, fmt.Errorf("%w: index %d", ErrUnknownPVar, index)
	}
	v := s.reg.vars[index]
	s.reg.mu.RUnlock()
	h := &Handle{session: s, v: v}
	s.mu.Lock()
	s.handles[h] = struct{}{}
	s.mu.Unlock()
	return h, nil
}

// AllocHandleByName allocates a sampling handle for the named PVAR.
func (s *Session) AllocHandleByName(name string) (*Handle, error) {
	info, err := s.Lookup(name)
	if err != nil {
		return nil, err
	}
	return s.AllocHandle(info.Index)
}

// Read samples the PVAR. For handle-bound variables, obj must be the
// object the variable is bound to (e.g. the Mercury handle of the RPC);
// for library-global variables obj must be nil.
func (s *Session) Read(h *Handle, obj any) (uint64, error) {
	if s.closed.Load() {
		return 0, ErrSessionClosed
	}
	if h.freed.Load() {
		return 0, ErrHandleFreed
	}
	if h.session != s {
		return 0, ErrHandleMismatch
	}
	switch h.v.info.Binding {
	case BindNoObject:
		if obj != nil {
			return 0, ErrNoObjectBound
		}
		return h.v.global(), nil
	case BindHandle:
		if obj == nil {
			return 0, fmt.Errorf("%w: %s", ErrNeedBoundObj, h.v.info.Name)
		}
		val, ok := h.v.bound(obj)
		if !ok {
			return 0, fmt.Errorf("%w: %s", ErrWrongBoundObj, h.v.info.Name)
		}
		return val, nil
	default:
		return 0, fmt.Errorf("pvar: bad binding %d", h.v.info.Binding)
	}
}

// Finalize ends the session, freeing any remaining handles. It returns
// the number of handles that were still allocated (a leak indicator).
func (s *Session) Finalize() int {
	if !s.closed.CompareAndSwap(false, true) {
		return 0
	}
	s.mu.Lock()
	leaked := len(s.handles)
	for h := range s.handles {
		h.freed.Store(true)
	}
	s.handles = nil
	s.mu.Unlock()
	s.reg.sessions.Add(-1)
	return leaked
}
