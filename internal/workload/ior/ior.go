// Package ior reimplements the ior benchmark driver of the paper's
// Mobject study (§V-A): each client writes a set of objects (segments ×
// transfer size) through mobject_write_op and reads them back through
// mobject_read_op, as in the paper's modified ior that uses Mobject for
// reading and writing objects.
package ior

import (
	"fmt"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/services/mobject"
)

// Config is one client process's share of the ior run.
type Config struct {
	// Target is the Mobject provider node address.
	Target string
	// Rank distinguishes this client's object namespace.
	Rank int
	// Segments is the number of objects written and read.
	Segments int
	// TransferSize is the bytes per object.
	TransferSize int
}

// Result reports one client's outcome.
type Result struct {
	ObjectsWritten int
	ObjectsRead    int
	BytesMoved     int64
}

// Run executes the write phase then the read phase from a single client
// ULT, matching ior's per-rank sequential issue order.
func Run(inst *margo.Instance, cfg Config) (Result, error) {
	client, err := mobject.NewClient(inst)
	if err != nil {
		return Result{}, err
	}
	var res Result
	var runErr error
	u := inst.Run(fmt.Sprintf("ior-rank-%d", cfg.Rank), func(self *abt.ULT) {
		data := make([]byte, cfg.TransferSize)
		for i := range data {
			data[i] = byte(cfg.Rank + i)
		}
		for s := 0; s < cfg.Segments; s++ {
			obj := fmt.Sprintf("ior.%08d.%08d", cfg.Rank, s)
			if err := client.WriteOp(self, cfg.Target, obj, data); err != nil {
				runErr = fmt.Errorf("ior rank %d write %s: %w", cfg.Rank, obj, err)
				return
			}
			res.ObjectsWritten++
			res.BytesMoved += int64(cfg.TransferSize)
		}
		buf := make([]byte, cfg.TransferSize)
		for s := 0; s < cfg.Segments; s++ {
			obj := fmt.Sprintf("ior.%08d.%08d", cfg.Rank, s)
			n, err := client.ReadOp(self, cfg.Target, obj, buf)
			if err != nil {
				runErr = fmt.Errorf("ior rank %d read %s: %w", cfg.Rank, obj, err)
				return
			}
			res.ObjectsRead++
			res.BytesMoved += int64(n)
		}
	})
	if err := u.Join(nil); err != nil {
		return res, err
	}
	return res, runErr
}
