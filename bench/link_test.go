package main

import (
	"io"
	"math/rand"
	"net"
	"testing"
	"time"
)

// echoServer echoes every connection it accepts until the test ends.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// The WAN model's round trip is twice its one-way delay, within 5 %.
func TestDelayConnRoundTrip(t *testing.T) {
	const delay = 20 * time.Millisecond
	stats := &linkStats{}
	c, err := dial(echoServer(t), delay, stats)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var rtts []float64
	buf := make([]byte, 1)
	const rounds = 15
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("round %d echoed %d", i, buf[0])
		}
		rtts = append(rtts, time.Since(start).Seconds())
	}
	want := 2 * delay.Seconds()
	if got := median(rtts); got < want || got > want*1.05 {
		t.Errorf("median round trip %.2f ms, want within 5%% above %.2f ms", got*1e3, want*1e3)
	}
	// Strict ping-pong: every round trip is a write, a reversal, a read,
	// and a reversal back.
	if got := stats.snapshot().reversals; got != 2*rounds-1 {
		t.Errorf("%d reversals over %d round trips, want %d", got, rounds, 2*rounds-1)
	}
}

// The counting wrapper sees exactly the bytes written and read, with and
// without the delay queue.
func TestCountConnCounts(t *testing.T) {
	for _, delay := range []time.Duration{0, time.Millisecond} {
		stats := &linkStats{}
		c, err := dial(echoServer(t), delay, stats)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		const rounds = 20
		var total int64
		for i := 0; i < rounds; i++ {
			msg := make([]byte, 1+rng.Intn(100_000))
			rng.Read(msg)
			werr := make(chan error, 1)
			go func() { _, err := c.Write(msg); werr <- err }()
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(c, got); err != nil {
				t.Fatal(err)
			}
			if err := <-werr; err != nil {
				t.Fatal(err)
			}
			if string(got) != string(msg) {
				t.Fatalf("delay %v round %d: echo differs", delay, i)
			}
			total += int64(len(msg))
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		n := stats.snapshot()
		if n.sent != total || n.recv != total {
			t.Errorf("delay %v: counted %d sent, %d received, wrote %d", delay, n.sent, n.recv, total)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
