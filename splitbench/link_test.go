package main

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"menos/internal/split"
)

// pipe returns a loopback TCP pair: the dialed end wrapped in a link of
// the given shape, and the accepted end counted but unshaped.
func pipe(t *testing.T, shape Shape) (tx, rx *linkConn, txStats, rxStats *LinkStats) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	txStats, rxStats = &LinkStats{}, &LinkStats{}
	tx = newLinkConn(c, shape, txStats, nil, "up")
	rx = newLinkConn(<-accepted, Shape{}, rxStats, nil, "down")
	t.Cleanup(func() {
		_ = tx.Close()
		_ = rx.Close()
	})
	return tx, rx, txStats, rxStats
}

// TestLinkPacing checks that a shaped link delivers at the configured
// rate: never earlier than transmission plus propagation allow, and
// within the emulator's tolerance (10% of the transfer time, covering
// timer slack) of it.
func TestLinkPacing(t *testing.T) {
	shape := Shape{BytesPerSec: 1 << 20, Delay: 20 * time.Millisecond}
	tx, rx, _, _ := pipe(t, shape)
	const total, chunkSize = 256 << 10, 16 << 10
	payload := bytes.Repeat([]byte{7}, total)

	start := time.Now()
	go func() {
		for off := 0; off < total; off += chunkSize {
			if _, err := tx.Write(payload[off : off+chunkSize]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	got := make([]byte, total)
	if _, err := io.ReadFull(rx, got[:chunkSize]); err != nil {
		t.Fatal(err)
	}
	first := time.Since(start)
	if _, err := io.ReadFull(rx, got[chunkSize:]); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}

	wantFirst := shape.Delay + time.Duration(float64(chunkSize)/shape.BytesPerSec*float64(time.Second))
	want := shape.Delay + time.Duration(float64(total)/shape.BytesPerSec*float64(time.Second))
	if first < wantFirst || elapsed < want {
		t.Fatalf("delivered early: first chunk %v (want ≥ %v), all %v (want ≥ %v)", first, wantFirst, elapsed, want)
	}
	if limit := want + want/10; elapsed > limit {
		t.Fatalf("delivered %d bytes in %v, want ≤ %v at %v B/s + %v", total, elapsed, limit, shape.BytesPerSec, shape.Delay)
	}
}

// TestLinkDelayDoesNotBlockSender checks that Write returns once bytes
// are queued: neither the propagation delay nor the transmission time
// of a burst below the queue bound holds the sender.
func TestLinkDelayDoesNotBlockSender(t *testing.T) {
	shape := Shape{BytesPerSec: 1 << 20, Delay: 300 * time.Millisecond}
	tx, rx, _, _ := pipe(t, shape)
	burst := make([]byte, 512<<10) // 500 ms of transmission at 1 MiB/s

	start := time.Now()
	for i := 0; i < 4; i++ {
		if _, err := tx.Write(burst[i*len(burst)/4 : (i+1)*len(burst)/4]); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("writes of a queued burst took %v", d)
	}
	one := make([]byte, 1)
	if _, err := io.ReadFull(rx, one); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < shape.Delay {
		t.Fatalf("first byte arrived after %v, before the %v propagation delay", d, shape.Delay)
	}
}

// TestLinkByteCountsExact checks the byte counters on both ends, and
// that Close delivers what is still queued.
func TestLinkByteCountsExact(t *testing.T) {
	tx, rx, txStats, rxStats := pipe(t, Shape{BytesPerSec: 8 << 20, Delay: 2 * time.Millisecond})
	sizes := []int{1, 8, 4093, 65536, 3, 100000, 17}
	want := 0
	for _, n := range sizes {
		if _, err := tx.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		want += n
	}
	if err := tx.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want || txStats.TxBytes.Load() != int64(want) || rxStats.RxBytes.Load() != int64(want) {
		t.Fatalf("sent %d: read %d, tx counter %d, rx counter %d",
			want, len(got), txStats.TxBytes.Load(), rxStats.RxBytes.Load())
	}
	if c := txStats.Chunks.Load(); c != int64(len(sizes)) {
		t.Fatalf("delivered %d chunks, want %d", c, len(sizes))
	}
	if _, err := tx.Write([]byte{1}); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestFrameScannerSplitsFrames(t *testing.T) {
	var stream bytes.Buffer
	msgs := []split.Message{
		&split.Hello{ClientID: "c7", ModelName: "opt-tiny", Batch: 1, Seq: 1},
		&split.BackwardResp{Iter: 2},
		&split.Bye{},
	}
	for _, m := range msgs {
		if err := split.WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []int{1, 3, stream.Len()} {
		s := frameScanner{keepFirst: true}
		var got []split.MsgType
		b := stream.Bytes()
		for off := 0; off < len(b); off += step {
			s.feed(b[off:min(off+step, len(b))], func(t split.MsgType) { got = append(got, t) })
		}
		if len(got) != 3 || got[0] != split.TypeHello || got[1] != split.TypeBackwardResp || got[2] != split.TypeBye {
			t.Fatalf("step %d: frame types %v", step, got)
		}
		msg, err := split.ReadMessage(bytes.NewReader(s.first))
		if h, ok := msg.(*split.Hello); err != nil || !ok || h.ClientID != "c7" {
			t.Fatalf("step %d: kept first frame decodes to %v, %v", step, msg, err)
		}
	}
}
