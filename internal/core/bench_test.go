package core

import (
	"testing"
	"time"
)

// BenchmarkBreadcrumbPush measures extending the callpath ancestry —
// executed once per RPC on the hot path.
func BenchmarkBreadcrumbPush(b *testing.B) {
	bc := Breadcrumb(0).Push("outer_rpc")
	for i := 0; i < b.N; i++ {
		_ = bc.Push("inner_rpc")
	}
}

// BenchmarkRecordOrigin measures one profile update with components.
func BenchmarkRecordOrigin(b *testing.B) {
	p := NewProfiler("bench", StageFull)
	bc := Breadcrumb(0).Push("x_rpc")
	var comps [NumComponents]uint64
	comps[CompOriginExec] = 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RecordOrigin(bc, "peer", time.Microsecond, &comps)
	}
}

// BenchmarkLamportTick measures the logical-clock advance.
func BenchmarkLamportTick(b *testing.B) {
	var l Lamport
	for i := 0; i < b.N; i++ {
		l.Tick()
	}
}

// BenchmarkSysSamplerCached measures the per-event OS sample (cached).
func BenchmarkSysSamplerCached(b *testing.B) {
	s := NewSysSampler(time.Hour)
	s.Sample()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Sample()
	}
}

// BenchmarkPercentile measures histogram percentile estimation.
func BenchmarkPercentile(b *testing.B) {
	var s CallStats
	for i := 0; i < 10_000; i++ {
		s.record(time.Duration(i)*time.Microsecond, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Percentile(99)
	}
}
