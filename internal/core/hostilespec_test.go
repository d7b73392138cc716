package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot"
	"deepsecure/internal/stdcell"
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
			payload = archFrame([digestSize]byte{}, pairID{}, payload)
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
			if err := cpConn.Send(transport.MsgHello, []byte(outsourcedHello)); err != nil {
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
// its place, the window announcement, the base phase's A past one point —
// one byte past it too, for the k points a client sends are more than it
// ever reads — the set-up OT's U past what the client's W weight bits
// take, and an inference's answer, whose cap is a label per output wire and
// sample at the batch cap. The announced payload never arrives, so a
// client that tried to read it would wait for its deadline instead.
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
		size   uint32 // the announced payload, oversized unless set
	}{
		{"arch", transport.MsgArch, transport.MsgArch, archHeader + nn.MaxSpecBytes, 0},
		{"busy", transport.MsgArch, transport.MsgBusy, uvarint, 0},
		{"pipeline", transport.MsgPipeline, transport.MsgPipeline, 2 * uvarint, 0},
		{"ot-base", transport.MsgOTBase, transport.MsgOTBase, maxOTBaseA, 0},
		{"ot-base A of 66 bytes", transport.MsgOTBase, transport.MsgOTBase, maxOTBaseA, maxOTBaseA + 1},
		{"ot-ext-u", transport.MsgOTExtU, transport.MsgOTExtU, ot.ExtULen(testNetWeightBits), 0},
		{"outputs", transport.MsgOutputLabels, transport.MsgOutputLabels, int(prog.Stats.Outputs) * DefaultMaxBatch * gc.LabelSize, 0},
	} {
		if tc.size == 0 {
			tc.size = uint32(oversized)
		}
		t.Run(tc.name, func(t *testing.T) {
			cEnd, toClient := net.Pipe()
			toServer, sEnd := net.Pipe()
			defer func() {
				for _, c := range []net.Conn{cEnd, toClient, toServer, sEnd} {
					c.Close()
				}
			}()
			cEnd.SetDeadline(time.Now().Add(5 * time.Second))
			go srv.ServeSession(transport.New(sEnd))                 //nolint:errcheck — the server's session dies with the pipes
			go io.Copy(toServer, toClient)                           //nolint:errcheck — the client's frames go through untouched
			go headerSwap(toClient, toServer, tc.at, tc.as, tc.size) //nolint:errcheck
			_, _, err := (&Client{}).Infer(transport.New(cEnd), []float64{0.5, -0.25, 0.75, -1, 0.125, 0.3})
			// The OT stack names its phase before the transport's refusal.
			want := fmt.Sprintf("transport: %v frame of %d bytes exceeds its limit of %d", tc.as, tc.size, tc.limit)
			if err == nil || !strings.HasSuffix(err.Error(), want) {
				t.Fatalf("err = %v, want %q", err, want)
			}
		})
	}
}

// TestHostileClientSetupAnswerCapped is the server's side of the set-up
// OT's bound: the client's answer is exactly W label pairs, so a header
// announcing one byte more is refused from the header alone, before the
// payload is read and before any inference.
func TestHostileClientSetupAnswerCapped(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	srv := &Server{Net: testNet(t, act.ReLU, 22), Fmt: fixed.Default}
	cEnd, toClient := net.Pipe()
	toServer, sEnd := net.Pipe()
	defer func() {
		for _, c := range []net.Conn{cEnd, toClient, toServer, sEnd} {
			c.Close()
		}
	}()
	limit := testNetWeightBits * 2 * ot.MsgLen
	served := make(chan error, 1)
	go func() {
		_, err := srv.ServeSession(transport.New(sEnd))
		served <- err
	}()
	go io.Copy(toClient, toServer)                                                               //nolint:errcheck — the server's frames go through untouched
	go headerSwap(toServer, toClient, transport.MsgOTExtY, transport.MsgOTExtY, uint32(limit+1)) //nolint:errcheck
	go (&Client{}).NewSession(transport.New(cEnd))                                               //nolint:errcheck — the client's session dies with the pipes
	want := fmt.Sprintf("transport: ot-ext-y frame of %d bytes exceeds its limit of %d", limit+1, limit)
	select {
	case err := <-served:
		if err == nil || err.Error() != want {
			t.Fatalf("server: %v, want %q", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the server still reads a set-up answer 5 s after its oversized header")
	}
}

// TestOutsourcedFramesCapped: every frame the three parties of the §3.3
// deployment read is capped before it is read, so a header announcing more
// than the protocol state allows is refused from the header alone, by the
// party it was meant for. The client caps the architecture at
// nn.MaxSpecBytes and both decode halves at the packed label width; the
// proxy caps the architecture, the client's share, the base phase's A at
// one point and the set-up OT's U at what W OTs take; the main server caps
// the client's share, the base phase's frame at the proxy's k points, the
// set-up OT's answer at W label pairs, the constants at two
// labels, the proxy's
// input labels at its share's, and a table frame at one level run's tables,
// which hold at most a window's gates. Every type a party never reads on a
// link is capped at 0 there.
func TestOutsourcedFramesCapped(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	f := fixed.Default
	model := testNet(t, act.ReLU, 23)
	n := model.In.Len() * f.Bits()
	w := n + nn.WeightBitCount(model, f)
	labelBytes := (stdcell.IndexBits(model.Out().Len()) + 7) / 8
	const client, proxy, server = 0, 1, 2
	// swap runs the three parties with the first at frame from → to
	// replaced by a header of type as announcing size bytes, and returns
	// the error of the party it was meant for.
	swap := func(t *testing.T, from, to int, at, as transport.MsgType, size uint32) error {
		// ends[a][b] is a's end of its link to b; every link runs through
		// a relay, and the one from → to swaps the frame.
		var ends [3][3]*transport.Conn
		var pipes []net.Conn
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				aEnd, aRelay := net.Pipe()
				bRelay, bEnd := net.Pipe()
				pipes = append(pipes, aEnd, aRelay, bRelay, bEnd)
				ends[a][b], ends[b][a] = transport.New(aEnd), transport.New(bEnd)
				relay := func(dst io.Writer, src io.Reader, rf, rt int) {
					if rf == from && rt == to {
						headerSwap(dst, src, at, as, size) //nolint:errcheck
						return
					}
					io.Copy(dst, src) //nolint:errcheck
				}
				go relay(bRelay, aRelay, a, b)
				go relay(aRelay, bRelay, b, a)
			}
		}
		defer func() {
			for _, p := range pipes {
				p.Close()
			}
		}()
		errs := make([]chan error, 3)
		for i := range errs {
			errs[i] = make(chan error, 1)
		}
		go func() {
			_, _, err := (&Client{}).InferOutsourced(ends[client][proxy], ends[client][server], []float64{0.5, -0.25, 0.75, -1, 0.125, 0.3})
			errs[client] <- err
		}()
		go func() { errs[proxy] <- (&Proxy{}).Run(ends[proxy][client], ends[proxy][server]) }()
		go func() {
			errs[server] <- (&Server{Net: model, Fmt: f}).ServeOutsourced(ends[server][proxy], ends[server][client])
		}()
		select {
		case err := <-errs[to]:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("still reading 10 s after the oversized header")
			return nil
		}
	}
	for _, tc := range []struct {
		name     string
		from, to int // the link's two parties: the frame travels from → to
		at       transport.MsgType
		limit    int
	}{
		{"client arch", proxy, client, transport.MsgArch, nn.MaxSpecBytes},
		{"client result", proxy, client, transport.MsgResult, labelBytes},
		{"client output labels", server, client, transport.MsgOutputLabels, labelBytes},
		{"proxy arch", server, proxy, transport.MsgArch, nn.MaxSpecBytes},
		{"proxy share", client, proxy, transport.MsgShare, (n + 7) / 8},
		{"proxy ot-base", server, proxy, transport.MsgOTBase, maxOTBaseA},
		{"proxy ot-ext-u", server, proxy, transport.MsgOTExtU, ot.ExtULen(w)},
		{"server share", client, server, transport.MsgShare, (n + 7) / 8},
		{"server ot-base", proxy, server, transport.MsgOTBase, maxOTBase},
		{"server ot-ext-y", proxy, server, transport.MsgOTExtY, w * 2 * ot.MsgLen},
		{"server const labels", proxy, server, transport.MsgConstLabels, 2 * gc.LabelSize},
		{"server input labels", proxy, server, transport.MsgInputLabels, n * gc.LabelSize},
		{"server tables", proxy, server, transport.MsgTables, streamWindow * circuit.AND.TableBytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The OT stack names its phase before the transport's refusal.
			want := fmt.Sprintf("transport: %v frame of %d bytes exceeds its limit of %d", tc.at, tc.limit+1, tc.limit)
			if err := swap(t, tc.from, tc.to, tc.at, tc.at, uint32(tc.limit+1)); err == nil || !strings.HasSuffix(err.Error(), want) {
				t.Fatalf("%v, want %q", err, want)
			}
		})
	}
	// A type a party never reads on a link is capped at 0 there: the first
	// frame it waits for on each link becomes a 1 GiB header of such a type.
	for _, tc := range []struct {
		name     string
		from, to int
		at, as   transport.MsgType
	}{
		{"client share for arch", proxy, client, transport.MsgArch, transport.MsgShare},
		{"client tables for output labels", server, client, transport.MsgOutputLabels, transport.MsgTables},
		{"proxy arch for share", client, proxy, transport.MsgShare, transport.MsgArch},
		{"proxy tables for arch", server, proxy, transport.MsgArch, transport.MsgTables},
		{"server tables for share", client, server, transport.MsgShare, transport.MsgTables},
		{"server result for ot-base", proxy, server, transport.MsgOTBase, transport.MsgResult},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := fmt.Sprintf("transport: %v frame of %d bytes exceeds its limit of 0", tc.as, transport.MaxFrame)
			if err := swap(t, tc.from, tc.to, tc.at, tc.as, transport.MaxFrame); err == nil || !strings.HasSuffix(err.Error(), want) {
				t.Fatalf("%v, want %q", err, want)
			}
		})
	}
}
