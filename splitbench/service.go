package main

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"menos/internal/obs"
	"menos/internal/split"
)

// frameHeader is the split frame header: magic(2) version(1) type(1)
// payload length(4, little-endian).
const frameHeader = 8

// frameScanner follows frame boundaries through one direction of a
// split byte stream without buffering payloads.
type frameScanner struct {
	hdr    [frameHeader]byte
	have   int // header bytes collected for the current frame
	remain int // payload bytes still to come
	// keepFirst retains the first frame's bytes (the Hello) in first.
	keepFirst bool
	first     []byte
}

// feed consumes b and calls done with the type of every frame that
// completes inside it.
func (s *frameScanner) feed(b []byte, done func(split.MsgType)) {
	for len(b) > 0 {
		if s.have < frameHeader {
			n := copy(s.hdr[s.have:], b)
			s.keep(b[:n])
			s.have += n
			b = b[n:]
			if s.have < frameHeader {
				return
			}
			s.remain = int(binary.LittleEndian.Uint32(s.hdr[4:]))
		}
		n := min(s.remain, len(b))
		s.keep(b[:n])
		s.remain -= n
		b = b[n:]
		if s.remain == 0 {
			s.have = 0
			s.keepFirst = false
			done(split.MsgType(s.hdr[3]))
		}
	}
}

func (s *frameScanner) keep(b []byte) {
	if s.keepFirst {
		s.first = append(s.first, b...)
	}
}

// pendingReq is a request the server has read and not yet answered.
type pendingReq struct {
	kind split.MsgType
	iter int
	read time.Time
}

// serviceConn is the server's side of one client connection. It counts
// frames in both directions and, when a tracer is set, records a
// "service:forward" or "service:backward" span for each request from
// the moment the server has read it to the moment its response is
// written. The server handles a connection's requests strictly in
// order, so responses match requests first in, first out. The k-th
// forward (and backward) request of a session belongs to the client's
// iteration k, which names its trace ID.
type serviceConn struct {
	*linkConn
	frames *atomic.Int64
	tracer *obs.Tracer

	mu       sync.Mutex
	rx, tx   frameScanner
	clientID string
	nFwd     int
	nBwd     int
	pending  []pendingReq
}

func newServiceConn(lc *linkConn, frames *atomic.Int64, tracer *obs.Tracer) *serviceConn {
	c := &serviceConn{linkConn: lc, frames: frames, tracer: tracer}
	c.rx.keepFirst = true
	return c
}

func (c *serviceConn) Read(b []byte) (int, error) {
	n, err := c.linkConn.Read(b)
	now := time.Now()
	c.mu.Lock()
	c.rx.feed(b[:n], func(t split.MsgType) {
		c.frames.Add(1)
		switch t {
		case split.TypeHello:
			if msg, err := split.ReadMessage(bytes.NewReader(c.rx.first)); err == nil {
				if h, ok := msg.(*split.Hello); ok {
					c.clientID = h.ClientID
					c.linkConn.setTrack(h.ClientID)
				}
			}
			c.rx.first = nil
		case split.TypeForwardReq:
			c.pending = append(c.pending, pendingReq{kind: t, iter: c.nFwd, read: now})
			c.nFwd++
		case split.TypeBackwardReq:
			c.pending = append(c.pending, pendingReq{kind: t, iter: c.nBwd, read: now})
			c.nBwd++
		}
	})
	c.mu.Unlock()
	return n, err
}

func (c *serviceConn) Write(b []byte) (int, error) {
	n, err := c.linkConn.Write(b)
	now := time.Now()
	c.mu.Lock()
	c.tx.feed(b[:n], func(t split.MsgType) {
		c.frames.Add(1)
		switch t {
		case split.TypeForwardResp, split.TypeBackwardResp, split.TypeError:
			if len(c.pending) == 0 {
				return
			}
			req := c.pending[0]
			c.pending = c.pending[1:]
			if c.tracer != nil {
				name := "service:forward"
				if req.kind == split.TypeBackwardReq {
					name = "service:backward"
				}
				c.tracer.RecordT(c.clientID, name, "service", obs.IterTraceID(c.clientID, req.iter),
					c.tracer.Now()-time.Since(req.read), now.Sub(req.read))
			}
		}
	})
	c.mu.Unlock()
	return n, err
}

var _ net.Conn = (*serviceConn)(nil)
