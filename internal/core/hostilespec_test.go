package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/nn"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// hostileArchFrames are architecture frames a server could answer a hello
// with. Each crashed the client process before nn.Spec.Build validated
// its input (divide by zero, makeslice out of range, or a multi-GB
// allocation); internal/nn's TestHostileSpecsReturnErrors holds the
// longer table.
var hostileArchFrames = map[string]string{
	"pool window 0":      `{"in":{"C":1,"H":4,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"maxpool"}]}`,
	"dense width -1":     `{"in":{"C":1,"H":1,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"dense","out":-1}]}`,
	"conv maps -2":       `{"in":{"C":1,"H":4,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"conv","outc":-2,"k":1,"stride":1}]}`,
	"1e14 weights":       `{"in":{"C":1,"H":1,"W":1000000},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"dense","out":100000000}]}`,
	"unknown activation": `{"in":{"C":1,"H":1,"W":4},"format":{"IntBits":3,"FracBits":12},"layers":[{"type":"act","act":99}]}`,
	// Valid formats an activation realization has no datapath for: Q8.12
	// puts the CORDIC engine (act 5 = TanhCORDIC) on an internal format
	// wider than fixed allows, Q15.16 asks a LUT (act 2 = TanhLUT) for 2^29
	// entries. Each reached a panic, or the allocation, through
	// netgen.Compile on whoever compiled the frame.
	"cordic at Q8.12": `{"in":{"C":1,"H":1,"W":4},"format":{"IntBits":8,"FracBits":12},"layers":[{"type":"dense","out":2},{"type":"act","act":5}]}`,
	"lut at Q15.16":   `{"in":{"C":1,"H":1,"W":4},"format":{"IntBits":15,"FracBits":16},"layers":[{"type":"dense","out":2},{"type":"act","act":2}]}`,
}

// serveArch plays a server (or, for the proxy, the main server behind it)
// that answers the hello with the given architecture frame — behind a
// program digest, a base id and a session counter when it is a session's;
// the §3.3 deployment's frame is the spec alone.
func serveArch(conn *transport.Conn, frame string, session bool) <-chan error {
	done := make(chan error, 1)
	go func() {
		if _, err := conn.Recv(transport.MsgHello); err != nil {
			done <- err
			return
		}
		payload := []byte(frame)
		if session {
			payload = archFrame([digestSize]byte{}, baseID{}, 1, payload)
		}
		if err := conn.Send(transport.MsgArch, payload); err != nil {
			done <- err
			return
		}
		done <- conn.Flush()
	}()
	return done
}

func TestHostileArchFrameIsAnError(t *testing.T) {
	for name, frame := range hostileArchFrames {
		t.Run(name, func(t *testing.T) {
			cConn, sConn, closer := transport.Pipe()
			defer closer.Close()
			done := serveArch(sConn, frame, true)
			if sess, err := (&Client{}).NewSession(cConn); err == nil {
				t.Errorf("NewSession accepted the architecture (session %v)", sess)
			}
			if err := <-done; err != nil {
				t.Errorf("hostile server's own writes: %v", err)
			}

			// The proxy builds the same frame on behalf of its client.
			pcConn, cpConn, closer2 := transport.Pipe()
			defer closer2.Close()
			psConn, spConn, closer3 := transport.Pipe()
			defer closer3.Close()
			if err := cpConn.Send(transport.MsgHello, []byte(protocolHello)); err != nil {
				t.Fatal(err)
			}
			if err := cpConn.Flush(); err != nil {
				t.Fatal(err)
			}
			done = serveArch(spConn, frame, false)
			if err := (&Proxy{}).Run(pcConn, psConn); err == nil {
				t.Error("Proxy.Run accepted the architecture")
			}
			if err := <-done; err != nil {
				t.Errorf("hostile server's own writes: %v", err)
			}
		})
	}
}

// headerSwap relays a server's frames to its client verbatim up to the
// first of type at, for which it writes only a header: a frame of type as
// announcing size payload bytes, none of which follow.
func headerSwap(dst io.Writer, src io.Reader, at, as transport.MsgType, size uint32) error {
	var hdr [5]byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return err
		}
		if transport.MsgType(hdr[0]) == at {
			hdr[0] = byte(as)
			binary.LittleEndian.PutUint32(hdr[1:], size)
			_, err := dst.Write(hdr[:])
			return err
		}
		if _, err := dst.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := io.CopyN(dst, src, int64(binary.LittleEndian.Uint32(hdr[1:]))); err != nil {
			return err
		}
	}
}

// TestHostileServerFramesCapped: a server frame whose header announces more
// than the protocol state allows is refused from the header alone — the
// architecture frame past its header and nn.MaxSpecBytes, a busy answer in
// its place, the window announcement, and an inference's answer, whose cap
// is a label per output wire and sample at the batch cap. The announced
// payload never arrives, so a client that tried to read it would wait for
// its deadline instead.
func TestHostileServerFramesCapped(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	model := testNet(t, act.ReLU, 21)
	srv := &Server{Net: model, Fmt: fixed.Default}
	prog, err := srv.Program()
	if err != nil {
		t.Fatal(err)
	}
	const oversized = archHeader + nn.MaxSpecBytes + 1
	const uvarint = binary.MaxVarintLen64
	for _, tc := range []struct {
		name   string
		at, as transport.MsgType
		limit  int
	}{
		{"arch", transport.MsgArch, transport.MsgArch, archHeader + nn.MaxSpecBytes},
		{"busy", transport.MsgArch, transport.MsgBusy, uvarint},
		{"pipeline", transport.MsgPipeline, transport.MsgPipeline, 2 * uvarint},
		{"outputs", transport.MsgOutputLabels, transport.MsgOutputLabels, int(prog.Stats.Outputs) * DefaultMaxBatch * gc.LabelSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cEnd, toClient := net.Pipe()
			toServer, sEnd := net.Pipe()
			defer func() {
				for _, c := range []net.Conn{cEnd, toClient, toServer, sEnd} {
					c.Close()
				}
			}()
			cEnd.SetDeadline(time.Now().Add(5 * time.Second))
			go srv.ServeSession(transport.New(sEnd))                           //nolint:errcheck — the server's session dies with the pipes
			go io.Copy(toServer, toClient)                                     //nolint:errcheck — the client's frames go through untouched
			go headerSwap(toClient, toServer, tc.at, tc.as, uint32(oversized)) //nolint:errcheck
			_, _, err := (&Client{}).Infer(transport.New(cEnd), []float64{0.5, -0.25, 0.75, -1, 0.125, 0.3})
			want := fmt.Sprintf("transport: %v frame of %d bytes exceeds its limit of %d", tc.as, oversized, tc.limit)
			if err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
		})
	}
}
