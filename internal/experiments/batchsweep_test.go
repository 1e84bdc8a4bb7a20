package experiments

import "testing"

// TestBatchSweepC4Effect runs a scaled-down window sweep and checks the
// paper's C4 shape where it can be counted: the wider the window, the
// fewer frames carry the same ops — one per op unbatched, at most one
// per 32 at window 64. The throughput that buys is logged, not
// asserted: on a loaded two-core host it has measured anywhere from
// 2.7x to 20x.
func TestBatchSweepC4Effect(t *testing.T) {
	res, err := RunBatchSweep(BatchSweepConfig{Windows: []int{1, 8, 64}, Issuers: 2, OpsPerIssuer: 512}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("%d points, want 3", len(res.Points))
	}
	const total = 2 * 512
	for _, p := range res.Points {
		if p.Ops != total {
			t.Fatalf("window %d completed %d ops, want %d", p.Window, p.Ops, total)
		}
		if p.Window == 1 {
			if p.Flushes != 0 {
				t.Fatalf("baseline recorded %d flushes, want none", p.Flushes)
			}
			continue
		}
		if p.Flushes == 0 || p.CoalesceRatio < 2 {
			t.Fatalf("window %d: flushes=%d coalesce=%.1f — ops did not coalesce",
				p.Window, p.Flushes, p.CoalesceRatio)
		}
	}
	framesPerOp := func(window int) float64 {
		for _, p := range res.Points {
			if p.Window == window && window > 1 {
				return float64(p.Flushes) / float64(p.Ops)
			}
		}
		return 1 // unbatched: every op is a frame of its own
	}
	f1, f8, f64 := framesPerOp(1), framesPerOp(8), framesPerOp(64)
	t.Logf("frames per op: w1 %.3f, w8 %.3f, w64 %.4f; speedup: w8 %.1fx, w64 %.1fx",
		f1, f8, f64, res.Speedup(8), res.Speedup(64))
	if f64 > 1.0/32 {
		t.Errorf("window 64 sent %.4f frames per op, want <= 1/32", f64)
	}
	if !(f1 > f8 && f8 > f64) {
		t.Errorf("frames per op not falling with the window: w1 %.3f, w8 %.3f, w64 %.4f", f1, f8, f64)
	}
}
