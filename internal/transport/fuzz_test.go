package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// rw adapts a raw byte stream (plus a write sink) to the io.ReadWriter
// a Conn wraps — the corruption tests feed ReadFrame hand-built bytes.
type rw struct {
	io.Reader
	io.Writer
}

func rawConn(stream []byte) *Conn {
	return New(rw{bytes.NewReader(stream), io.Discard})
}

// frame hand-encodes one wire frame: 1 type byte, 4-byte little-endian
// length, payload — independent of Send, so these tests keep pinning
// the wire format itself.
func frame(t MsgType, payload []byte) []byte {
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	return append(hdr[:], payload...)
}

// TestReadFrameCorruptionClasses pins the exact error per corruption
// class: every way a stream can be cut or mangled maps to a descriptive,
// stable error — the contract the chaos sweep's "clean error" oracle and
// operators' logs both lean on.
func TestReadFrameCorruptionClasses(t *testing.T) {
	hello := frame(MsgHello, []byte("deepsecure"))
	oversized := frame(MsgTables, nil)
	binary.LittleEndian.PutUint32(oversized[1:], MaxFrame+1)

	cases := []struct {
		name    string
		stream  []byte
		wantErr string // exact error string
		wantIs  error  // errors.Is target, nil to skip
	}{
		{
			name:    "clean EOF before any frame",
			stream:  nil,
			wantErr: "transport: read header: EOF",
			wantIs:  io.EOF,
		},
		{
			name:    "header truncated mid-way",
			stream:  hello[:3],
			wantErr: "transport: read header: unexpected EOF",
			wantIs:  io.ErrUnexpectedEOF,
		},
		{
			name:    "length field exceeds the frame limit",
			stream:  oversized,
			wantErr: "transport: frame length 1073741825 exceeds limit",
		},
		{
			name:    "payload cut mid-way",
			stream:  hello[:len(hello)-4],
			wantErr: "transport: read hello payload: unexpected EOF",
			wantIs:  io.ErrUnexpectedEOF,
		},
		{
			name:    "payload missing entirely",
			stream:  hello[:5],
			wantErr: "transport: read hello payload: EOF",
			wantIs:  io.EOF,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := rawConn(tc.stream).ReadFrame()
			if err == nil {
				t.Fatal("ReadFrame succeeded on a corrupted stream")
			}
			if err.Error() != tc.wantErr {
				t.Errorf("err = %q, want %q", err, tc.wantErr)
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Errorf("errors.Is(err, %v) = false: %v", tc.wantIs, err)
			}
		})
	}
}

// TestFrameLimitsRefuseBeforeAllocating pins the per-type caps: five bytes
// from a peer — a header claiming a gigabyte — are refused from the header
// alone, for a hello by default and for any type once SetLimit has pinned
// it, and a frame within its limit still reads.
func TestFrameLimitsRefuseBeforeAllocating(t *testing.T) {
	huge := func(typ MsgType) []byte {
		hdr := frame(typ, nil)
		binary.LittleEndian.PutUint32(hdr[1:], MaxFrame)
		return hdr
	}
	c := rawConn(huge(MsgHello))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := c.ReadFrame()
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "transport: hello frame of 1073741824 bytes exceeds its limit of 192" {
		t.Fatalf("1 GiB hello: err = %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing a 1 GiB hello allocated %d bytes", grew)
	}

	c = rawConn(append(huge(MsgOTExtY), frame(MsgOTExtY, make([]byte, 64))...))
	c.SetLimit(MsgOTExtY, 64)
	if _, _, err := c.ReadFrame(); err == nil || !strings.Contains(err.Error(), "exceeds its limit of 64") {
		t.Fatalf("oversized ot-ext-y under SetLimit: err = %v", err)
	}
	if typ, p, err := c.ReadFrame(); err != nil || typ != MsgOTExtY || len(p) != 64 {
		t.Fatalf("ot-ext-y at its limit = %v, %d bytes, %v", typ, len(p), err)
	}
	c = rawConn(frame(MsgOTExtY, []byte{1}))
	c.SetLimit(MsgOTExtY, 0)
	if _, _, err := c.ReadFrame(); err == nil {
		t.Fatal("a limit of 0 must refuse every non-empty frame of the type")
	}
}

// TestRecycleReusesPayloadBuffers pins the free list: a recycled payload
// backs the next frame of similar size, and is left alone by small ones.
func TestRecycleReusesPayloadBuffers(t *testing.T) {
	big := bytes.Repeat([]byte{7}, 4096)
	stream := append(frame(MsgTables, big), frame(MsgInferBegin, []byte{1})...)
	stream = append(stream, frame(MsgTables, big[:3000])...)
	c := rawConn(stream)
	_, first, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	c.Recycle(first)
	if _, small, err := c.ReadFrame(); err != nil || cap(small) >= 4096 {
		t.Fatalf("one-byte frame took the recycled buffer (cap %d, err %v)", cap(small), err)
	}
	_, again, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &first[:1][0] || !bytes.Equal(again, big[:3000]) {
		t.Fatal("a similar-sized frame did not reuse the recycled buffer intact")
	}
}

// FuzzReadFrame feeds arbitrary byte streams through the frame reader:
// it must never panic and never misreport — every frame it does return
// must be exactly what a Send of that frame produces at the consumed
// stream position, and every error must be a transport-prefixed one.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame(MsgHello, []byte("deepsecure")))
	f.Add(frame(MsgHello, nil))
	f.Add(append(frame(MsgInferBegin, []byte{1}), frame(MsgConstLabels, bytes.Repeat([]byte{7}, 64))...))
	f.Add(frame(MsgHello, []byte("x"))[:3])                   // truncated header
	f.Add(frame(MsgHello, bytes.Repeat([]byte{9}, 100))[:20]) // truncated payload
	oversized := frame(MsgTables, nil)
	binary.LittleEndian.PutUint32(oversized[1:], 1<<31)
	f.Add(oversized)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}) // unknown type, absurd length

	f.Fuzz(func(t *testing.T, stream []byte) {
		c := rawConn(stream)
		off := 0
		for {
			typ, payload, err := c.ReadFrame()
			if err != nil {
				if !strings.HasPrefix(err.Error(), "transport: ") {
					t.Fatalf("error lost its transport prefix: %v", err)
				}
				return
			}
			// Round-trip: the returned frame re-encodes to exactly the
			// bytes consumed from the stream.
			enc := frame(typ, payload)
			if off+len(enc) > len(stream) || !bytes.Equal(enc, stream[off:off+len(enc)]) {
				t.Fatalf("frame %v/%d bytes at offset %d does not re-encode to the consumed stream bytes",
					typ, len(payload), off)
			}
			off += len(enc)
		}
	})
}
