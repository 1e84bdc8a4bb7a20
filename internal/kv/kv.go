// Package kv provides the key-value storage backends used by the SDSKV
// microservice, standing in for the std::map backend of the paper
// (§V-C). Two engines with different concurrency and ordering properties
// are provided:
//
//   - "map": an ordered in-memory store backed by a B+-tree, like the
//     paper's std::map backend. It does not support concurrent writers —
//     the property behind the write-serialization pathology of the
//     paper's Figure 10 — so the service layer guards it with a single
//     ULT mutex. That critical section is kept short: pairs live in a
//     per-database chunk table, leaves hold no pointers (so the collector
//     does not scan them), and a search compares the keys' first 8 bytes
//     cached as integers, reading a stored key only on a tie.
//   - "shardedmap": a hash map sharded across independently locked
//     buckets, supporting parallel insertion; unordered listing. Used by
//     the ablation benchmarks to show the Figure 10 pathology vanish.
package kv

import (
	"errors"
	"fmt"
	"slices"
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

// carve appends a copy of src to *buf and returns the copy
// capacity-clipped: the pairs of one listing share a buffer without being
// able to grow into each other.
func carve[T ~string | ~[]byte](buf *[]byte, src T) []byte {
	off := len(*buf)
	*buf = append(*buf, src...)
	return (*buf)[off:len(*buf):len(*buf)]
}

// carvePairs replaces the views in pairs with copies carved from buf,
// grown once to size (their total length) first, and returns buf.
func carvePairs(pairs []Pair, buf []byte, size int) []byte {
	buf = slices.Grow(buf, size)
	for i := range pairs {
		pairs[i] = Pair{Key: carve(&buf, pairs[i].Key), Value: carve(&buf, pairs[i].Value)}
	}
	return buf
}

// DB is one key-value database instance.
//
// Reads copy out of the store into memory the caller owns, under the
// store's read lock: what they return is never changed by a later Put,
// and writing through it never reaches the store. The Append forms copy
// into buffers the caller passes in and may reuse, so a read into
// buffers with room allocates nothing.
type DB interface {
	// Put stores copies of key and value, replacing any previous value;
	// the caller may reuse both buffers as soon as it returns.
	Put(key, value []byte) error
	// Get retrieves a copy of the value stored under key: AppendGet(nil, key).
	Get(key []byte) (value []byte, found bool, err error)
	// AppendGet appends the value stored under key to dst and returns the
	// extended slice (dst unchanged when key is absent).
	AppendGet(dst, key []byte) (value []byte, found bool, err error)
	// Delete removes key, reporting whether it was present.
	Delete(key []byte) (bool, error)
	// AppendList appends up to max pairs with keys >= start to pairs, in
	// key order for ordered engines (insertion-agnostic order for
	// unordered ones), and returns both extended slices. The new pairs'
	// bytes are copied into buf, grown at most once per call: each Key
	// and Value is a capacity-clipped slice of it, so appending to one
	// reallocates instead of running into its neighbour. Pairs carved by
	// an earlier call keep the array they were carved from.
	AppendList(pairs []Pair, buf, start []byte, max int) ([]Pair, []byte, error)
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
