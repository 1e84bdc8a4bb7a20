package main

import (
	"strings"
	"testing"
	"time"

	"symbiosys/internal/telemetry"
)

// snapshotAt builds a one-instance snapshot read at t with the given
// events_read count.
func snapshotAt(t time.Time, eventsRead uint64) *telemetry.Snapshot {
	return &telemetry.Snapshot{
		UnixNanos: t.UnixNano(),
		Instances: []telemetry.InstanceSnapshot{{
			Addr: "n0/srv",
			Last: telemetry.Sample{UnixNanos: t.UnixNano(), EventsRead: eventsRead},
		}},
	}
}

// evPerSec returns the EV/S column of the instance row of a rendered
// table.
func evPerSec(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 8 && f[0] == "n0/srv" {
			return f[3]
		}
	}
	t.Fatalf("no instance row in:\n%s", out)
	return ""
}

func TestRenderEventRate(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	first := snapshotAt(t0, 100)
	for _, tc := range []struct {
		name       string
		prev, snap *telemetry.Snapshot
		want       string
	}{
		{"two fetches 1 s apart", first, snapshotAt(t0.Add(time.Second), 600), "500"},
		{"a single fetch", nil, first, "0"},
		{"two fetches at one instant", first, snapshotAt(t0, 600), "0"},
		{"an instance the earlier fetch lacks", &telemetry.Snapshot{}, first, "0"},
	} {
		if got := evPerSec(t, render(tc.prev, tc.snap, 0)); got != tc.want {
			t.Errorf("%s: EV/S = %s, want %s", tc.name, got, tc.want)
		}
	}
}
