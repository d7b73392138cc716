package gc

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"deepsecure/internal/sched"
)

// garbleLevelTables garbles one independent level with the given pool and
// returns the produced table bytes. Seeds are fixed so every call over
// the same seeds garbles the identical level with identical labels.
func garbleLevelTables(t *testing.T, pool *Pool, nAND, nFree int) []byte {
	t.Helper()
	g, err := NewBatchGarbler(rand.New(rand.NewSource(61)), 1)
	if err != nil {
		t.Fatal(err)
	}
	ands, frees, maxWire := independentLevel(t, assignBatch(g), rand.New(rand.NewSource(62)), nAND, nFree)
	g.Grow(maxWire)
	tables := make([]byte, packedBytes(ands, 1))
	if err := g.GarbleLevel(ands, frees, 0, tables, pool); err != nil {
		t.Fatal(err)
	}
	return tables
}

// perGateTables garbles the level garbleLevelTables garbles, from the same
// seeds, a gate a level (garbleGate).
func perGateTables(t *testing.T, nAND, nFree int) []byte {
	t.Helper()
	g, err := NewBatchGarbler(rand.New(rand.NewSource(61)), 1)
	if err != nil {
		t.Fatal(err)
	}
	ands, frees, _ := independentLevel(t, assignBatch(g), rand.New(rand.NewSource(62)), nAND, nFree)
	var tables []byte
	var gid uint64
	for _, gate := range append(ands, frees...) {
		if tables, err = garbleGate(g, &gid, gate, tables); err != nil {
			t.Fatal(err)
		}
	}
	return tables
}

// TestSharedPoolMatchesPrivate pins byte-determinism at the gc layer: on
// one scheduler, a pool of width 1 (every level inline) and pools of width
// 2 and 4 (levels fanned out as scheduler chunks) produce the exact table
// bytes garbling the level a gate a level produces, for level sizes on
// both sides of the parallel clamps.
func TestSharedPoolMatchesPrivate(t *testing.T) {
	s := sched.New(4)
	defer s.Close()
	for _, sz := range []struct{ nAND, nFree int }{{8, 4}, {1024, 512}, {4000, 100}, {7000, 9000}} {
		want := perGateTables(t, sz.nAND, sz.nFree)
		for _, w := range []int{1, 2, 4} {
			if got := garbleLevelTables(t, NewSharedPool(s, w), sz.nAND, sz.nFree); !bytes.Equal(want, got) {
				t.Fatalf("width=%d nAND=%d nFree=%d: tables differ from a gate a level", w, sz.nAND, sz.nFree)
			}
		}
	}
}

// TestSharedPoolConcurrentSessions drives one scheduler from many
// concurrent "sessions" (independent garblers) and checks every stream
// still matches the inline (width 1) baseline — the multi-tenant shape the
// server runs, where chunk stealing interleaves sessions arbitrarily.
// Run with -race.
func TestSharedPoolConcurrentSessions(t *testing.T) {
	s := sched.New(4)
	defer s.Close()
	want := garbleLevelTables(t, NewSharedPool(s, 1), 6400, 256)
	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan string, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := garbleLevelTables(t, NewSharedPool(s, 4), 6400, 256)
			if !bytes.Equal(want, got) {
				errs <- "concurrent stream diverged from the inline baseline"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSharedPoolOnClosedScheduler checks graceful degradation: a pool over
// a closed scheduler still garbles correctly (inline), so engine shutdown
// ordering can never corrupt a trailing level run. The level is large
// enough to fan out two ways, so it reaches the closed scheduler.
func TestSharedPoolOnClosedScheduler(t *testing.T) {
	s := sched.New(2)
	s.Close()
	want := perGateTables(t, 4000, 100)
	got := garbleLevelTables(t, NewSharedPool(s, 2), 4000, 100)
	if !bytes.Equal(want, got) {
		t.Fatal("closed-scheduler pool produced different tables")
	}
}
