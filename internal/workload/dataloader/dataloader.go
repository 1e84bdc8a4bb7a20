// Package dataloader reimplements the HEPnOS "data-loader" workflow step
// the paper studies (§V-C1): reading particle-physics event data and
// writing it into the HEPnOS service. The paper's loader parses HDF5
// files from a parallel filesystem; neither the files nor HDF5 matter to
// the RPC behaviour under study, so this loader substitutes a seeded
// synthetic event generator producing serialized event records with the
// same size characteristics (substitution documented in DESIGN.md).
//
// The loader runs a configurable number of issuer ULTs per client
// process, each batching events through its own HEPnOS client — the
// "ULTs issuing RPC requests" that compete with the Mercury progress
// ULT in the paper's §V-C4 study.
package dataloader

import (
	"fmt"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/services/hepnos"
)

// EventGen deterministically synthesizes serialized event records.
type EventGen struct {
	DataSet string
	// Size is the serialized event payload size in bytes.
	Size int
	seed uint64
}

// NewEventGen returns a generator for the named dataset.
func NewEventGen(dataset string, size int, seed uint64) *EventGen {
	if size <= 0 {
		size = 1024
	}
	return &EventGen{DataSet: dataset, Size: size, seed: seed}
}

// Event returns the key and a freshly allocated payload of event i.
func (g *EventGen) Event(i int) (hepnos.EventKey, []byte) {
	return g.AppendEvent(make([]byte, 0, g.Size), i)
}

// AppendEvent returns the key of event i and appends its serialized
// payload to dst.
func (g *EventGen) AppendEvent(dst []byte, i int) (hepnos.EventKey, []byte) {
	key := hepnos.EventKey{
		DataSet: g.DataSet,
		Run:     uint64(i / 1000),
		SubRun:  uint64((i / 100) % 10),
		Event:   uint64(i),
	}
	// xorshift-filled payload: deterministic, incompressible-ish, cheap.
	dst = append(dst, make([]byte, g.Size)...)
	buf := dst[len(dst)-g.Size:]
	x := g.seed ^ uint64(i)*0x9e3779b97f4a7c15
	for j := 0; j < len(buf); j += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for k := 0; k < 8 && j+k < len(buf); k++ {
			buf[j+k] = byte(x >> (8 * k))
		}
	}
	return key, dst
}

// Config drives one client process's share of the load.
type Config struct {
	// Events is the number of events this client process stores.
	Events int
	// EventSize is the serialized payload size.
	EventSize int
	// BatchSize is the HEPnOS batching knob (Table IV).
	BatchSize int
	// MaxInflight enables the async flush engine with that many
	// outstanding put_packed RPCs per issuer (0/1 = synchronous).
	MaxInflight int
	// IssueCost is the modeled per-RPC client preparation cost.
	IssueCost time.Duration
	// Issuers is the number of concurrent issuing ULTs.
	Issuers int
	// Servers describes the HEPnOS deployment.
	Servers []hepnos.ServerInfo
	// Seed makes the generated events deterministic per client.
	Seed uint64
}

// Run stores cfg.Events synthetic events from inst, splitting the range
// across cfg.Issuers concurrent ULTs, and blocks until every issuer has
// flushed. It returns the total number of events stored.
func Run(inst *margo.Instance, cfg Config) (uint64, error) {
	if cfg.Issuers <= 0 {
		cfg.Issuers = 1
	}
	gen := NewEventGen("loader/"+inst.Addr(), cfg.EventSize, cfg.Seed)

	per := cfg.Events / cfg.Issuers
	errs := make([]error, cfg.Issuers)
	stored := make([]uint64, cfg.Issuers)
	ults := make([]*abt.ULT, cfg.Issuers)
	for w := 0; w < cfg.Issuers; w++ {
		w := w
		lo := w * per
		hi := lo + per
		if w == cfg.Issuers-1 {
			hi = cfg.Events
		}
		ults[w] = inst.Run(fmt.Sprintf("loader-%d", w), func(self *abt.ULT) {
			client, err := hepnos.NewClient(inst, cfg.Servers, hepnos.Options{
				BatchSize:   cfg.BatchSize,
				MaxInflight: cfg.MaxInflight,
				IssueCost:   cfg.IssueCost,
			})
			if err != nil {
				errs[w] = err
				return
			}
			var payload []byte // StoreEvent copies it
			for i := lo; i < hi; i++ {
				var key hepnos.EventKey
				key, payload = gen.AppendEvent(payload[:0], i)
				if err := client.StoreEvent(self, key, payload); err != nil {
					errs[w] = err
					return
				}
			}
			if err := client.Flush(self); err != nil {
				errs[w] = err
				return
			}
			stored[w] = client.Stored()
		})
	}
	var total uint64
	for w, u := range ults {
		if err := u.Join(nil); err != nil {
			return total, err
		}
		if errs[w] != nil {
			return total, errs[w]
		}
		total += stored[w]
	}
	return total, nil
}
