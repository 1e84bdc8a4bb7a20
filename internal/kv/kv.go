// Package kv provides the key-value storage backends used by the SDSKV
// microservice, standing in for the std::map backend of the paper
// (§V-C). Two engines with different concurrency and ordering properties
// are provided:
//
//   - "map": an ordered in-memory store backed by a B-tree, like the
//     paper's std::map backend. It does not support concurrent writers —
//     the property behind the write-serialization pathology of the
//     paper's Figure 10 — so the service layer guards it with a single
//     ULT mutex.
//   - "shardedmap": a hash map sharded across independently locked
//     buckets, supporting parallel insertion; unordered listing. Used by
//     the ablation benchmarks to show the Figure 10 pathology vanish.
package kv

import (
	"errors"
	"fmt"
)

// Errors returned by backends.
var (
	ErrClosed         = errors.New("kv: database closed")
	ErrUnknownBackend = errors.New("kv: unknown backend")
)

// Pair is one key-value record.
type Pair struct {
	Key   []byte
	Value []byte
}

// carve appends a copy of src to *buf, which the caller sized for
// everything it will carve, and returns the copy capacity-clipped: the
// pairs of one List share a buffer without being able to grow into each
// other.
func carve[T ~string | ~[]byte](buf *[]byte, src T) []byte {
	off := len(*buf)
	*buf = append(*buf, src...)
	return (*buf)[off:len(*buf):len(*buf)]
}

// DB is one key-value database instance.
type DB interface {
	// Name returns the database's instance name.
	Name() string
	// Backend returns the engine identifier ("map", "shardedmap").
	Backend() string
	// Put stores copies of key and value, replacing any previous value;
	// the caller may reuse both buffers as soon as it returns.
	Put(key, value []byte) error
	// Get retrieves the value stored under key, as a copy the caller
	// owns (List's pairs are copies too): a later Put never changes it.
	Get(key []byte) (value []byte, found bool, err error)
	// Delete removes key, reporting whether it was present.
	Delete(key []byte) (bool, error)
	// List returns up to max pairs with keys >= start, in key order for
	// ordered engines (insertion-agnostic order for unordered ones). The
	// pairs are copies, independent of the store like Get's value, but
	// they share one backing buffer: each Key and Value is a
	// capacity-clipped slice of it, so appending to one reallocates
	// instead of running into its neighbour, and holding any of them
	// keeps the whole listing alive.
	List(start []byte, max int) ([]Pair, error)
	// Len reports the number of stored pairs.
	Len() int
	// ConcurrentWrites reports whether parallel Put calls are safe
	// without external serialization.
	ConcurrentWrites() bool
	// Close releases the database.
	Close() error
}

// Open creates a database of the named backend.
func Open(backend, name string) (DB, error) {
	switch backend {
	case "map":
		return newBTreeDB(name), nil
	case "shardedmap":
		return newShardedDB(name), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownBackend, backend)
	}
}
