package ssg

import (
	"sync/atomic"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
)

// notifyTimeout bounds each best-effort push RPC so one unreachable
// recipient cannot stall the notifier queue behind it.
const notifyTimeout = 250 * time.Millisecond

// DetectorConfig tunes the root-side failure detector.
type DetectorConfig struct {
	// Interval between ping rounds. Default 20ms.
	Interval time.Duration
	// PingTimeout bounds each ping RPC. Default 50ms.
	PingTimeout time.Duration
	// SuspectAfter consecutive missed pings raise EventSuspect.
	// Default 2.
	SuspectAfter int
	// FailAfter consecutive missed pings evict the member with
	// EventFail. Default 4.
	FailAfter int
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Interval <= 0 {
		c.Interval = 20 * time.Millisecond
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = 50 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.FailAfter <= c.SuspectAfter {
		c.FailAfter = c.SuspectAfter + 2
	}
	return c
}

// Detector is a SWIM-style failure detector for one group: the root
// pings every member each round; consecutive misses first mark the
// member suspect (view unchanged, EventSuspect pushed), then evict it
// (EventFail pushed, version bumped). Recovery before eviction clears
// the miss count. The real SSG gossips pings peer-to-peer; rooting the
// detector keeps the reproduction single-writer over the view while
// exercising the same suspicion→eviction protocol against the fault
// plane.
type Detector struct {
	group *Group
	cfg   DetectorConfig

	stop atomic.Bool
	ult  *abt.ULT

	misses map[string]int
}

// StartDetector begins failure detection for the group. Stop it with
// Detector.Stop (Host.Close stops all detectors).
func (h *Host) StartDetector(g *Group, cfg DetectorConfig) *Detector {
	d := &Detector{group: g, cfg: cfg.withDefaults(), misses: make(map[string]int)}
	d.ult = h.inst.Run("ssg-detector-"+g.name, d.loop)
	h.detectMu.Lock()
	h.detectors = append(h.detectors, d)
	h.detectMu.Unlock()
	return d
}

// Stop halts the detector and waits for its ULT to exit.
func (d *Detector) Stop() {
	if d.stop.Swap(true) {
		return
	}
	d.ult.Join(nil)
}

func (d *Detector) loop(self *abt.ULT) {
	h := d.group.host
	selfAddr := h.inst.Addr()
	for !d.stop.Load() {
		self.Sleep(d.cfg.Interval)
		if d.stop.Load() {
			return
		}
		v := d.group.View()
		// Forget members that left between rounds.
		for addr := range d.misses {
			if !v.Has(addr) {
				delete(d.misses, addr)
			}
		}
		for _, m := range v.Members {
			if m.Addr == selfAddr {
				continue
			}
			err := h.inst.Forward(self, m.Addr, RPCPing, mercury.Void{}, nil, margo.ForwardOpts{Timeout: d.cfg.PingTimeout})
			if err == nil {
				d.misses[m.Addr] = 0
				continue
			}
			d.misses[m.Addr]++
			switch n := d.misses[m.Addr]; {
			case n == d.cfg.SuspectAfter:
				d.group.Suspect(m.Addr)
			case n >= d.cfg.FailAfter:
				delete(d.misses, m.Addr)
				d.group.Fail(m.Addr)
			}
		}
	}
}
