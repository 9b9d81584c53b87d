package split

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"menos/internal/adapter"
	"menos/internal/tensor"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.MsgType() != m.MsgType() {
		t.Fatalf("type %v != %v", got.MsgType(), m.MsgType())
	}
	return got
}

func TestHelloRoundTrip(t *testing.T) {
	m := &Hello{
		ClientID:  "client-7",
		ModelName: "llama-tiny",
		Cut:       2,
		Adapter: adapter.Spec{
			Kind: adapter.KindLoRA, Rank: 8, Alpha: 16,
			Targets: []adapter.Target{adapter.TargetQ, adapter.TargetV},
		},
		Optimizer:   OptimizerConfig{Kind: "adam", LR: 3e-4},
		Batch:       4,
		Seq:         128,
		AdapterSeed: 0xdeadbeef,
	}
	got := roundTrip(t, m).(*Hello)
	if got.ClientID != m.ClientID || got.ModelName != m.ModelName || got.Cut != m.Cut {
		t.Fatalf("identity fields: %+v", got)
	}
	if got.Adapter.Kind != adapter.KindLoRA || got.Adapter.Rank != 8 ||
		got.Adapter.Alpha != 16 || len(got.Adapter.Targets) != 2 {
		t.Fatalf("adapter spec: %+v", got.Adapter)
	}
	if got.Optimizer.LR != 3e-4 || got.Optimizer.Kind != "adam" {
		t.Fatalf("optimizer: %+v", got.Optimizer)
	}
	if got.AdapterSeed != 0xdeadbeef || got.Batch != 4 || got.Seq != 128 {
		t.Fatalf("config: %+v", got)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	got := roundTrip(t, &HelloAck{OK: false, ForwardBytes: 123, BackwardBytes: 456, Reason: "no memory"}).(*HelloAck)
	if got.OK || got.ForwardBytes != 123 || got.BackwardBytes != 456 || got.Reason != "no memory" {
		t.Fatalf("ack: %+v", got)
	}
}

func TestTensorMessagesRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	act := tensor.NewNormal(rng, 1, 3, 5)
	got := roundTrip(t, &ForwardReq{Iter: 9, Batch: 1, Seq: 3, Activations: act}).(*ForwardReq)
	if got.Iter != 9 || got.Batch != 1 || got.Seq != 3 {
		t.Fatalf("fields: %+v", got)
	}
	if !got.Activations.SameShape(act) {
		t.Fatalf("shape %v", got.Activations.Shape())
	}
	for i := range act.Data() {
		if got.Activations.Data()[i] != act.Data()[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}

	grads := tensor.NewNormal(rng, 1, 2, 4)
	gotB := roundTrip(t, &BackwardReq{Iter: 2, Gradients: grads}).(*BackwardReq)
	if gotB.Gradients.Len() != grads.Len() {
		t.Fatal("gradients lost")
	}
	roundTrip(t, &ForwardResp{Iter: 1, Activations: act})
	roundTrip(t, &BackwardResp{Iter: 1, Gradients: grads})
}

func TestNilTensorRoundTrip(t *testing.T) {
	got := roundTrip(t, &ForwardReq{Iter: 1}).(*ForwardReq)
	if got.Activations != nil {
		t.Fatal("nil tensor not preserved")
	}
}

func TestByeAndErrorRoundTrip(t *testing.T) {
	roundTrip(t, &Bye{})
	got := roundTrip(t, &ErrorMsg{Reason: "boom"}).(*ErrorMsg)
	if got.Reason != "boom" {
		t.Fatalf("reason %q", got.Reason)
	}
}

func TestBadMagicRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Bye{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] = 0xFF
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Bye{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[2] = 99
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Bye{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[3] = 200
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	header := make([]byte, headerSize)
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Bye{}); err != nil {
		t.Fatal(err)
	}
	copy(header, buf.Bytes()[:headerSize])
	header[4] = 0xFF
	header[5] = 0xFF
	header[6] = 0xFF
	header[7] = 0x7F
	if _, err := ReadMessage(bytes.NewReader(header)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestTruncatedPayloadRejected(t *testing.T) {
	var buf bytes.Buffer
	rng := tensor.NewRNG(2)
	if err := WriteMessage(&buf, &ForwardReq{Activations: tensor.NewNormal(rng, 1, 4, 4)}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadMessage(bytes.NewReader(raw[:len(raw)-8])); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	// Craft a Bye frame claiming a 4-byte payload.
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &ErrorMsg{Reason: ""}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[3] = byte(TypeBye) // Bye decodes nothing, leaving 4 bytes
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestCorruptPayloadNoPanic(t *testing.T) {
	// Fuzz-ish: any byte soup after a valid header must error, never
	// panic.
	f := func(body []byte, typeSeed uint8) bool {
		msgType := MsgType(typeSeed%13 + 1)
		if len(body) > 1<<16 {
			body = body[:1<<16]
		}
		var buf bytes.Buffer
		header := make([]byte, headerSize)
		header[0] = 0x53
		header[1] = 0x4D
		header[2] = Version
		header[3] = byte(msgType)
		header[4] = byte(len(body))
		header[5] = byte(len(body) >> 8)
		buf.Write(header)
		buf.Write(body)
		_, err := ReadMessage(&buf)
		// Either decodes (harmless) or errors; must not panic.
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every message survives a pipe round-trip through sequential
// writes (stream framing works for back-to-back messages).
func TestStreamOfMessages(t *testing.T) {
	var buf bytes.Buffer
	rng := tensor.NewRNG(3)
	msgs := []Message{
		&Hello{ClientID: "a", ModelName: "m", Cut: 1, Adapter: adapter.LoRASpec(adapter.DefaultLoRA())},
		&ForwardReq{Iter: 0, Batch: 1, Seq: 2, Activations: tensor.NewNormal(rng, 1, 2, 3)},
		&ForwardResp{Iter: 0, Activations: tensor.NewNormal(rng, 1, 2, 3)},
		&BackwardReq{Iter: 0, Gradients: tensor.NewNormal(rng, 1, 2, 3)},
		&BackwardResp{Iter: 0, Gradients: tensor.NewNormal(rng, 1, 2, 3)},
		&Bye{},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.MsgType() != want.MsgType() {
			t.Fatalf("type %v, want %v", got.MsgType(), want.MsgType())
		}
	}
	if _, err := ReadMessage(&buf); !errors.Is(err, io.EOF) && err == nil {
		t.Fatal("read past end succeeded")
	}
}

func TestBackwardReqApplyFlag(t *testing.T) {
	rng := tensor.NewRNG(9)
	g := tensor.NewNormal(rng, 1, 2, 2)
	with := roundTrip(t, &BackwardReq{Iter: 3, Apply: true, Gradients: g}).(*BackwardReq)
	if !with.Apply {
		t.Fatal("Apply=true lost")
	}
	without := roundTrip(t, &BackwardReq{Iter: 3, Apply: false, Gradients: g}).(*BackwardReq)
	if without.Apply {
		t.Fatal("Apply=false lost")
	}
}

// TestDecoderIntsRejectsForgedCount pins the ints count bound to the
// bytes left after the count, not the whole payload: a forged count
// that fits the frame length but not the remaining 8-byte slots must
// fail without allocating the slice it claims.
func TestDecoderIntsRejectsForgedCount(t *testing.T) {
	payload := func(count uint32, slots int) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, count), make([]byte, 8*slots)...)
	}

	d := decoder{buf: payload(2, 2)}
	if vs := d.ints(); d.err != nil || len(vs) != 2 {
		t.Fatalf("exact count: ints = %v, err = %v", vs, d.err)
	}

	// One more than fits: under a len(buf) bound this allocated three
	// ints, read two and returned a half-filled slice.
	d = decoder{buf: payload(3, 2)}
	if vs := d.ints(); vs != nil || !errors.Is(d.err, ErrShortRead) {
		t.Fatalf("count past the remaining bytes: ints = %v, err = %v", vs, d.err)
	}

	// The worst forged count under the old bound claims one int per
	// payload byte, an 8x allocation amplification.
	forged := payload(0, 64)
	binary.LittleEndian.PutUint32(forged, uint32(len(forged)))
	allocs := testing.AllocsPerRun(10, func() {
		d := decoder{buf: forged}
		if d.ints() != nil || d.err == nil {
			t.Fatal("forged count accepted")
		}
	})
	if allocs != 0 {
		t.Fatalf("forged count allocated %v times per decode", allocs)
	}
}

// TestReadMessageAllocatesOnlyReceivedBytes pins the hostile-peer
// bound on payload reads: a header claiming MaxFrameBytes followed by
// a hang-up must not allocate the claimed length up front.
func TestReadMessageAllocatesOnlyReceivedBytes(t *testing.T) {
	header := make([]byte, headerSize)
	binary.LittleEndian.PutUint16(header[0:], Magic)
	header[2] = Version
	header[3] = byte(TypeForwardReq)
	binary.LittleEndian.PutUint32(header[4:], MaxFrameBytes)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMessage(bytes.NewReader(header))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("claimed %d-byte frame allocated %d bytes before any payload arrived", MaxFrameBytes, got)
	}
}

// TestReadMessageMultiChunkFrame round-trips a frame several payload
// chunks long through the growing read path, and pins that a frame cut
// short after its first chunk reports an unexpected EOF.
func TestReadMessageMultiChunkFrame(t *testing.T) {
	rng := tensor.NewRNG(5)
	act := tensor.NewNormal(rng, 1, 3*payloadChunk/(4*64)+7, 64)
	got := roundTrip(t, &ForwardReq{Iter: 9, Activations: act}).(*ForwardReq)
	if !slices.Equal(got.Activations.Data(), act.Data()) {
		t.Fatal("multi-chunk activations differ after the round trip")
	}

	var buf bytes.Buffer
	if err := WriteMessage(&buf, &ForwardReq{Activations: act}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:headerSize+payloadChunk+100]
	if _, err := ReadMessage(bytes.NewReader(cut)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated multi-chunk frame: err = %v, want unexpected EOF", err)
	}
}
