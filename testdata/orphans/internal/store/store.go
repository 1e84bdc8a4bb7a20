// Package store is the fixture of TestNoOrphansCatchesNameCollisions:
// each orphan it carries shares its name with something a main reaches,
// so only a rule that resolves references by type reports it.
package store

// The RPCs a Server registers handlers for.
const (
	RPCGet  = "store_get_rpc"
	RPCOpen = "store_open_rpc" // forwarded only by Client.Open
)

// Config configures a DB.
type Config struct {
	Shards  int
	Verbose bool // set only by store_test.go; ServerOptions.Verbose is set by main
}

// ServerOptions configures a Server.
type ServerOptions struct {
	Verbose bool
}

// DB is a store.
type DB struct{ cfg Config }

// Open is reached from main.
func Open(cfg Config) *DB { return &DB{cfg: cfg} }

// Server dispatches RPCs by name.
type Server struct {
	opts     ServerOptions
	handlers map[string]func() string
}

// NewServer registers the handler of every RPC.
func NewServer(opts ServerOptions, db *DB) *Server {
	s := &Server{opts: opts, handlers: map[string]func() string{}}
	s.RegisterRPC(RPCGet, db.get)
	s.RegisterRPC(RPCOpen, db.open)
	return s
}

// RegisterRPC installs the handler of one RPC.
func (s *Server) RegisterRPC(name string, h func() string) { s.handlers[name] = h }

func (db *DB) get() string  { return "value" }
func (db *DB) open() string { return "opened" }

// Client forwards RPCs to a Server.
type Client struct{ s *Server }

// NewClient returns a client of s.
func NewClient(s *Server) *Client { return &Client{s: s} }

// Get is reached from main.
func (c *Client) Get() string { return c.s.handlers[RPCGet]() }

// Open shares its name with the reached Open and only store_test.go
// calls it.
func (c *Client) Open() string { return c.s.handlers[RPCOpen]() }
