package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// TestAppendTagNoAlloc pins the tagged-send hot path: appending the
// uvarint tag(s) of a begin frame into a pre-sized session scratch
// buffer (what Session.InferAsync / InferBatchAsync and the server's
// pipeline announcement do) must not allocate — AppendTag into a
// nil/undersized dst reallocates the frame buffer on every send.
func TestAppendTagNoAlloc(t *testing.T) {
	scratch := make([]byte, 0, 2*binary.MaxVarintLen64)
	if allocs := testing.AllocsPerRun(200, func() {
		// A batch begin is the worst case: two uvarints (id ++ B).
		scratch = AppendTag(AppendTag(scratch[:0], 1<<40), 16)
	}); allocs != 0 {
		t.Fatalf("AppendTag into a pre-sized scratch allocated %.1f times per run, want 0", allocs)
	}
	if id, rest, err := SplitTag(scratch); err != nil || id != 1<<40 {
		t.Fatalf("scratch round trip: id=%d err=%v", id, err)
	} else if b, n := binary.Uvarint(rest); n != len(rest) || b != 16 {
		t.Fatalf("scratch round trip: batch=%d", b)
	}
}

func TestTaggedFrameRoundTrip(t *testing.T) {
	a, b, closer := Pipe()
	defer closer.Close()
	payload := []byte("garbled tables go here")
	if err := a.SendTagged(MsgInferTables, 300, payload); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, raw, err := b.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgInferTables {
		t.Fatalf("type = %v, want %v", typ, MsgInferTables)
	}
	id, content, err := SplitTag(raw)
	if err != nil {
		t.Fatal(err)
	}
	if id != 300 || !bytes.Equal(content, payload) {
		t.Fatalf("tag round trip: id=%d content=%q", id, content)
	}
	// SendTagged must cost exactly the uvarint on top of the payload.
	if want := int64(5 + 2 + len(payload)); a.Metrics().BytesSent.Value() != want {
		t.Errorf("tagged frame used %d bytes, want %d", a.Metrics().BytesSent.Value(), want)
	}
}

func TestSplitTagRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"truncated-uvarint", []byte{0x80}},
		{"truncated-uvarint-long", []byte{0xff, 0xff, 0xff}},
		{"overflow-uvarint", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := SplitTag(tc.payload); err == nil {
				t.Errorf("SplitTag(%v) accepted a malformed tag", tc.payload)
			} else if !strings.Contains(err.Error(), "inference tag") {
				t.Errorf("error should name the inference tag, got %v", err)
			}
		})
	}
}

// FuzzSplitTag fuzzes the v4 tag decoder: no input may panic, and every
// accepted payload must decode consistently after re-encoding.
func FuzzSplitTag(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x80})
	f.Add(AppendTag(nil, 1))
	f.Add(append(AppendTag(nil, 1<<40), []byte("payload")...))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, content, err := SplitTag(payload)
		if err != nil {
			return
		}
		// Accepted tags must survive a canonical re-encode: the
		// re-framed payload decodes to the same id and content.
		re := append(AppendTag(nil, id), content...)
		id2, content2, err := SplitTag(re)
		if err != nil {
			t.Fatalf("re-encoded tag rejected: %v", err)
		}
		if id2 != id || !bytes.Equal(content2, content) {
			t.Fatalf("re-encode drift: (%d, %q) vs (%d, %q)", id, content, id2, content2)
		}
		// And a tagged frame carrying it must round-trip the wire.
		var buf bytes.Buffer
		c := New(readWriter{&buf, io.Discard})
		cw := New(readWriter{bytes.NewReader(nil), &buf})
		if err := cw.SendTagged(MsgInferTables, id, content); err != nil {
			return // oversized fuzz payloads may exceed MaxFrame
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		typ, raw, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("framed tagged payload unreadable: %v", err)
		}
		id3, content3, err := SplitTag(raw)
		if typ != MsgInferTables || err != nil || id3 != id || !bytes.Equal(content3, content) {
			t.Fatalf("wire round trip drift: typ=%v err=%v id=%d", typ, err, id3)
		}
	})
}
