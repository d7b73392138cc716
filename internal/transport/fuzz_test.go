package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
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
			name:    "type past the defined ones",
			stream:  frame(200, nil),
			wantErr: "transport: frame of unknown type 200",
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
// alone, for a hello by default, for any type past the defined ones always,
// and for any type once SetLimit has pinned it, and a frame within its
// limit still reads.
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

	for _, typ := range []MsgType{msgTypeEnd, 200, 255} {
		runtime.ReadMemStats(&before)
		_, _, err := rawConn(huge(typ)).ReadFrame()
		runtime.ReadMemStats(&after)
		if want := fmt.Sprintf("transport: frame of unknown type %d", typ); err == nil || err.Error() != want {
			t.Fatalf("1 GiB frame of type %d: err = %v, want %q", typ, err, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("refusing a 1 GiB frame of type %d allocated %d bytes", typ, grew)
		}
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

// drainPools empties the size-class pools, which every Conn in the process
// shares, so that a test sees only the buffers it recycles itself.
func drainPools() {
	for k := range pools {
		for pools[k].Get() != nil {
		}
	}
}

// TestRecycleReusesPayloadBuffers pins the size-class pools: a recycled
// payload backs the next frame of its class, and is left alone by small
// frames, which are allocated exactly. 100 and 99 KiB both fall in the
// 112 KiB class.
func TestRecycleReusesPayloadBuffers(t *testing.T) {
	big := bytes.Repeat([]byte{7}, 100<<10)
	similar := bytes.Repeat([]byte{9}, 99<<10)
	stream := append(frame(MsgTables, big), frame(MsgInferBegin, []byte{1})...)
	stream = append(stream, frame(MsgTables, similar)...)
	drainPools()
	c := rawConn(stream)
	_, first, err := c.ReadFrame()
	if err != nil || cap(first) != 112<<10 {
		t.Fatalf("a 100 KiB frame got a buffer of cap %d (err %v), want its 112 KiB class", cap(first), err)
	}
	c.Recycle(first)
	if _, small, err := c.ReadFrame(); err != nil || cap(small) != 1 {
		t.Fatalf("one-byte frame was not allocated exactly (cap %d, err %v)", cap(small), err)
	}
	_, again, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, similar) {
		t.Fatal("a frame read into a recycled buffer does not hold its own bytes")
	}
	// Under the race detector sync.Pool drops a share of what it is given.
	if !raceEnabled && &again[0] != &first[0] {
		t.Fatal("a frame of the recycled buffer's class did not reuse it")
	}
}

// TestRecycleDropsOddBuffers pins that a buffer whose capacity is not a
// class size is never pooled: a small frame's, one between two classes, or
// a suffix of a class-sized one.
func TestRecycleDropsOddBuffers(t *testing.T) {
	drainPools()
	c := rawConn(frame(MsgTables, make([]byte, 4096)))
	_, small, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	c.Recycle(small)
	c.Recycle(make([]byte, 100<<10))
	c.Recycle(make([]byte, 1, 128<<10)[1:])
	for k := range pools {
		if pools[k].Get() != nil {
			t.Fatalf("the %d-byte class pooled a buffer of another size", classes[k])
		}
	}
}

// TestRecycleAcrossConns reads frames of several classes on two connections
// and recycles them from several goroutines each, through the pools both
// share: no buffer may back two live frames at once, and every frame must
// read back its own bytes. CI runs it under -race -count=10.
func TestRecycleAcrossConns(t *testing.T) {
	const frames, consumers = 64, 3
	sizes := []int{64 << 10, 70 << 10, 100 << 10, 130 << 10}
	var (
		mu   sync.Mutex
		live = map[*byte]bool{}
		wg   sync.WaitGroup
	)
	for id := range 2 {
		pr, pw := io.Pipe()
		c := New(rw{pr, io.Discard})
		ch := make(chan []byte)
		wg.Add(2 + consumers)
		go func() {
			defer wg.Done()
			for i := range frames {
				fill := bytes.Repeat([]byte{byte(id<<7 | i)}, sizes[i%len(sizes)])
				if _, err := pw.Write(frame(MsgTables, fill)); err != nil {
					return
				}
			}
			pw.Close()
		}()
		go func() {
			defer wg.Done()
			defer close(ch)
			defer pr.Close()
			for range frames {
				_, p, err := c.ReadFrame()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if live[&p[0]] {
					t.Errorf("conn %d: a frame was read into a buffer another live frame holds", id)
				}
				live[&p[0]] = true
				mu.Unlock()
				ch <- p
			}
		}()
		for range consumers {
			go func() {
				defer wg.Done()
				for p := range ch {
					runtime.Gosched()
					if bytes.Count(p, p[:1]) != len(p) {
						t.Errorf("conn %d: a frame's bytes changed while it was live", id)
					}
					mu.Lock()
					delete(live, &p[0])
					mu.Unlock()
					c.Recycle(p)
				}
			}()
		}
	}
	wg.Wait()
}

// FuzzReadFrame feeds arbitrary byte streams through the frame reader:
// it must never panic and never misreport — every frame it does return
// must be of a defined type and exactly what a Send of that frame produces
// at the consumed stream position, and every error must be a
// transport-prefixed one.
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
	f.Add(frame(msgTypeEnd, []byte{1}))         // the first unknown type, a small payload

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
			if typ >= msgTypeEnd {
				t.Fatalf("ReadFrame returned a frame of type %d, past the defined ones", typ)
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
