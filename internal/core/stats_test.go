package core

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestStatsAddCoversEveryField pins Add against the struct: folding a
// Stats whose every field is 3 into one whose every field is 2 must leave
// 5 everywhere except MaxInFlight, which keeps the higher peak. A field
// added to Stats without a line in Add fails here.
func TestStatsAddCoversEveryField(t *testing.T) {
	fill := func(v int64) *Stats {
		st := &Stats{}
		rv := reflect.ValueOf(st).Elem()
		for i := 0; i < rv.NumField(); i++ {
			rv.Field(i).SetInt(v)
		}
		return st
	}
	got := fill(2)
	got.Add(fill(3))
	rv := reflect.ValueOf(got).Elem()
	for i := 0; i < rv.NumField(); i++ {
		name, want := rv.Type().Field(i).Name, int64(5)
		if name == "MaxInFlight" {
			want = 3
		}
		if rv.Field(i).Int() != want {
			t.Errorf("Add left %s = %d, want %d", name, rv.Field(i).Int(), want)
		}
	}
}

// GatesPerSec must return 0 — not +Inf or NaN — when no kernel time was
// recorded, which happens legitimately: a session whose every inference
// hit the garble-ahead bank pays no online garbling, and a snapshot
// taken before the first level completes has GateTime == 0.
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
