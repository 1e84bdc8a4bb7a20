package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestElasticSmoke scales an in-process elastic sdskv service 3 → 6 → 4 under a
// sustained write load and holds the acceptance bars from ISSUE 8:
// zero acked-then-lost ops, migration visible in traces and metrics,
// and a bounded churn-phase p99.
func TestElasticSmoke(t *testing.T) {
	res, err := RunElastic(ElasticConfig{
		StartNodes:       3,
		PeakNodes:        6,
		EndNodes:         4,
		IssuersPerClient: 2,
		OpsPerPhase:      25,
	}, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.LostAcked != 0 {
		t.Errorf("lost %d acked ops, want 0", res.LostAcked)
	}
	if len(res.Phases) != 5 {
		t.Fatalf("got %d phases, want 5", len(res.Phases))
	}
	for _, p := range res.Phases {
		if p.Acked != p.Ops || p.Ops == 0 {
			t.Errorf("phase %s: acked %d of %d ops", p.Name, p.Acked, p.Ops)
		}
	}
	if res.KeysMigratedOut == 0 || res.KeysMigratedIn == 0 {
		t.Errorf("no migration recorded: out=%d in=%d", res.KeysMigratedOut, res.KeysMigratedIn)
	}
	// The final cluster must actually be EndNodes wide with keys spread.
	if len(res.FinalSpread) != 4 {
		t.Errorf("final spread covers %d nodes, want 4", len(res.FinalSpread))
	}
	total := 0
	for addr, n := range res.FinalSpread {
		if n == 0 {
			t.Errorf("surviving node %s holds no keys", addr)
		}
		total += n
	}
	var acked int
	for _, p := range res.Phases {
		acked += int(p.Acked)
	}
	if total != acked {
		t.Errorf("survivors hold %d pairs, want %d (residual copies or losses)", total, acked)
	}
	// Migration must be visible in the trace plane...
	if res.MigrateSpans == 0 {
		t.Error("no sdskv_migrate_* spans in merged traces")
	}
	// ...and on /metrics via the registered service pvars.
	for _, family := range []string{
		"symbiosys_pvar_elastic_keys_migrated_out",
		"symbiosys_pvar_elastic_keys_migrated_in",
		"symbiosys_pvar_elastic_migrations_completed",
	} {
		if !strings.Contains(res.MetricsText, family) {
			t.Errorf("metrics exposition missing %s", family)
		}
	}
	// Churn-phase p99 must stay bounded: migration may inflate tails,
	// but a stale route must fail over in a handful of short tries, not
	// hang. The absolute ceiling is generous for -race CI boxes.
	if mig := res.MigrationP99(); mig > 3*time.Second {
		t.Errorf("migration-phase p99 %v exceeds 3s ceiling", mig)
	}
	if res.DrainErr != nil {
		t.Errorf("drain: %v", res.DrainErr)
	}
	t.Logf("steady p99 %v, migration p99 %v, migrated out=%d in=%d, dual=%d readthrough=%d redirects=%d, migrate spans=%d",
		res.SteadyP99(), res.MigrationP99(), res.KeysMigratedOut, res.KeysMigratedIn,
		res.DualWrites, res.ReadThroughs, res.Redirects, res.MigrateSpans)
}
