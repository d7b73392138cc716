package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"deepsecure/internal/obs"
)

// TestStatsOfCoversEveryField pins the read-out against the struct: from a
// ledger in which every counter moved, StatsOf must leave no field zero. A
// field added to Stats without a line in StatsOf fails here.
func TestStatsOfCoversEveryField(t *testing.T) {
	s := obs.NewSet(nil)
	for _, c := range []*obs.Counter{s.BytesSent, s.BytesReceived, s.SessionTime, s.GatesAnd, s.GatesFree,
		s.Inferences, s.SessionsResumed, s.ResumeMisses, s.OTOfflineTime, s.OTConsumed, s.GateTime} {
		c.Add(3)
	}
	rv := reflect.ValueOf(StatsOf(s)).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).Int() == 0 {
			t.Errorf("StatsOf left %s zero", rv.Type().Field(i).Name)
		}
	}
}

// GatesPerSec must return 0 — not +Inf or NaN — when no kernel time was
// recorded, which happens legitimately: a snapshot taken before the first
// level completes has GateTime == 0.
func TestGatesPerSecZeroGateTime(t *testing.T) {
	cases := []struct {
		name string
		st   Stats
	}{
		{"zero value", Stats{}},
		{"gates but no time", Stats{ANDGates: 1 << 20, FreeGates: 1 << 22}},
		{"negative time", Stats{ANDGates: 100, GateTime: -time.Second}},
	}
	for _, tc := range cases {
		got := tc.st.GatesPerSec()
		if got != 0 {
			t.Errorf("%s: GatesPerSec() = %v, want 0", tc.name, got)
		}
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("%s: GatesPerSec() = %v, must be finite", tc.name, got)
		}
	}
}

func TestGatesPerSec(t *testing.T) {
	st := Stats{ANDGates: 600, FreeGates: 400, GateTime: 2 * time.Second}
	if got := st.GatesPerSec(); got != 500 {
		t.Fatalf("GatesPerSec() = %v, want 500", got)
	}
}
