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
	ands, frees, maxWire := independentLevel(t, g.AssignInput, rand.New(rand.NewSource(62)), nAND, nFree)
	g.Grow(maxWire)
	tables := make([]byte, nAND*TableSize)
	if err := g.GarbleLevel(ands, frees, 0, tables, pool); err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestSharedPoolMatchesPrivate pins the tentpole's byte-determinism
// claim at the gc layer: a shared-scheduler pool of width w produces the
// exact table bytes a private pool of w workers produces, for every
// width and for level sizes on both sides of the parallel clamps.
func TestSharedPoolMatchesPrivate(t *testing.T) {
	s := sched.New(4)
	defer s.Close()
	for _, w := range []int{1, 2, 4} {
		for _, sz := range []struct{ nAND, nFree int }{{8, 4}, {200, 100}, {1024, 512}} {
			private := garbleLevelTables(t, NewPool(w), sz.nAND, sz.nFree)
			shared := garbleLevelTables(t, NewSharedPool(s, w), sz.nAND, sz.nFree)
			if !bytes.Equal(private, shared) {
				t.Fatalf("width=%d nAND=%d nFree=%d: shared-pool tables differ from private-pool tables", w, sz.nAND, sz.nFree)
			}
		}
	}
}

// TestSharedPoolConcurrentSessions drives one shared scheduler from many
// concurrent "sessions" (independent garblers) and checks every stream
// still matches its private-pool baseline — the multi-tenant shape the
// server runs, where chunk stealing interleaves sessions arbitrarily.
// Run with -race.
func TestSharedPoolConcurrentSessions(t *testing.T) {
	s := sched.New(4)
	defer s.Close()
	want := garbleLevelTables(t, NewPool(4), 512, 256)
	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan string, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := garbleLevelTables(t, NewSharedPool(s, 4), 512, 256)
			if !bytes.Equal(want, got) {
				errs <- "concurrent shared-pool stream diverged from private baseline"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSharedPoolOnClosedScheduler checks graceful degradation: a shared
// pool over a closed scheduler still garbles correctly (inline), so
// engine shutdown ordering can never corrupt a trailing level run.
func TestSharedPoolOnClosedScheduler(t *testing.T) {
	s := sched.New(2)
	s.Close()
	want := garbleLevelTables(t, NewPool(2), 200, 100)
	got := garbleLevelTables(t, NewSharedPool(s, 2), 200, 100)
	if !bytes.Equal(want, got) {
		t.Fatal("closed-scheduler shared pool produced different tables")
	}
}
