package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// This file is the sub-stream layer: per-inference frame tags and the
// bounded in-flight window that validates them. Tagging lets frames of
// overlapped inferences share one connection (cross-inference
// pipelining); the window bounds how far a peer may run ahead and turns
// tag misuse — unknown ids, replayed ids, ids past the window — into
// descriptive protocol errors instead of silent state corruption.

// AppendTag appends the uvarint inference id to dst — the payload prefix
// of every tagged frame.
func AppendTag(dst []byte, id uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], id)
	return append(dst, buf[:n]...)
}

// SplitTag splits a tagged payload into its inference id and the
// frame content. The content aliases payload (no copy).
func SplitTag(payload []byte) (id uint64, content []byte, err error) {
	id, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, fmt.Errorf("transport: malformed inference tag (%d payload bytes)", len(payload))
	}
	return id, payload[n:], nil
}

// Window tracks the inference sub-streams open on one session and
// enforces the in-flight depth. Inference ids are issued by the client
// strictly sequentially from 1; Begin admits the next id only while
// fewer than depth inferences are in flight, Check admits tagged frames
// only for ids begun and not yet closed, and Close retires an id once
// its output labels are delivered. Safe for concurrent use (the demux
// reader Begins/Checks while per-inference contexts Close).
type Window struct {
	mu     sync.Mutex
	depth  int
	next   uint64
	active map[uint64]bool
}

// NewWindow returns a window admitting at most depth concurrently
// in-flight inferences (depth < 1 is clamped to 1, the serial mode).
func NewWindow(depth int) *Window {
	if depth < 1 {
		depth = 1
	}
	return &Window{depth: depth, next: 1, active: make(map[uint64]bool, depth)}
}

// Depth returns the window's in-flight capacity.
func (w *Window) Depth() int { return w.depth }

// Begin admits a MsgInferBegin for id.
func (w *Window) Begin(id uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if id < w.next {
		return fmt.Errorf("transport: duplicate inference id %d (ids are single-use, next is %d)", id, w.next)
	}
	if id > w.next {
		return fmt.Errorf("transport: inference id %d skips ahead (want %d; ids are sequential)", id, w.next)
	}
	if len(w.active) >= w.depth {
		return fmt.Errorf("transport: inference id %d exceeds the in-flight window (depth %d)", id, w.depth)
	}
	w.active[id] = true
	w.next++
	return nil
}

// Check admits a tagged frame for id: it must be in flight.
func (w *Window) Check(id uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active[id] {
		return nil
	}
	if id >= w.next {
		return fmt.Errorf("transport: frame tagged for unknown inference %d (not begun)", id)
	}
	return fmt.Errorf("transport: frame tagged for closed inference %d", id)
}

// Close retires an in-flight id after its outputs are delivered.
func (w *Window) Close(id uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.active[id] {
		return fmt.Errorf("transport: close of inference %d which is not in flight", id)
	}
	delete(w.active, id)
	return nil
}
