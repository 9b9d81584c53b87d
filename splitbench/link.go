package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"menos/internal/obs"
)

// Shape is one direction of an emulated link: a serializer draining at
// BytesPerSec followed by a propagation delay. The zero Shape is an
// unshaped pass-through that only counts bytes.
type Shape struct {
	BytesPerSec float64
	Delay       time.Duration
}

func (s Shape) shaped() bool { return s.BytesPerSec > 0 || s.Delay > 0 }

// LinkStats accumulates what the conns of one link direction saw. All
// fields are updated atomically, so one LinkStats may be shared by
// several conns (every conn a shaped listener accepts, say).
type LinkStats struct {
	TxBytes atomic.Int64 // bytes accepted by Write
	RxBytes atomic.Int64 // bytes returned by Read
	// Chunks counts delivered Writes; QueueNs sums each chunk's time
	// from Write to leaving the serializer (waiting behind earlier
	// bytes plus its own transmission); LateNs sums how much later than
	// scheduled each chunk reached the underlying conn.
	Chunks  atomic.Int64
	QueueNs atomic.Int64
	LateNs  atomic.Int64
}

// maxQueued bounds the bytes a shaped conn holds in flight before
// Write blocks, like a kernel socket buffer: large enough that no
// split frame of the benchmark's workloads ever waits for room.
const maxQueued = 8 << 20

// chunk is one Write in the delay line.
type chunk struct {
	data   []byte
	enq    time.Time
	depart time.Time // last byte leaves the serializer
	due    time.Time // depart + propagation delay
}

// linkConn is a delay-line net.Conn. Writes are stamped with their
// departure and delivery times and queued; a pump goroutine hands each
// chunk to the underlying conn at its delivery time. Write returns as
// soon as the bytes are queued, so propagation delay never blocks the
// sender, and transmission time only does so once maxQueued bytes are
// waiting. Reads pass through and are counted.
type linkConn struct {
	net.Conn
	shape Shape
	stats *LinkStats
	// tracer, when set, records one "link:<dir>" span per chunk from
	// Write to delivery on track (settable once the peer is known).
	tracer *obs.Tracer
	dir    string
	track  atomic.Pointer[string]

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []chunk
	queued    int
	busyUntil time.Time
	closed    bool
	err       error // first write error from the pump

	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// newLinkConn wraps conn so that its writes cross shape. dir names the
// direction in trace spans ("up" from a client, "down" from the
// server).
func newLinkConn(conn net.Conn, shape Shape, stats *LinkStats, tracer *obs.Tracer, dir string) *linkConn {
	c := &linkConn{Conn: conn, shape: shape, stats: stats, tracer: tracer, dir: dir, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	if shape.shaped() {
		go c.pump()
	} else {
		close(c.done)
	}
	return c
}

// setTrack names the trace track of this conn's link spans.
func (c *linkConn) setTrack(track string) { c.track.Store(&track) }

func (c *linkConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.stats.RxBytes.Add(int64(n))
	return n, err
}

func (c *linkConn) Write(b []byte) (int, error) {
	if !c.shape.shaped() {
		n, err := c.Conn.Write(b)
		c.stats.TxBytes.Add(int64(n))
		return n, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.queued+len(b) > maxQueued && c.queued > 0 && !c.closed && c.err == nil {
		c.cond.Wait()
	}
	if c.closed {
		return 0, net.ErrClosed
	}
	if c.err != nil {
		return 0, c.err
	}
	now := time.Now()
	start := now
	if c.busyUntil.After(start) {
		start = c.busyUntil
	}
	depart := start
	if c.shape.BytesPerSec > 0 {
		depart = start.Add(time.Duration(float64(len(b)) / c.shape.BytesPerSec * float64(time.Second)))
	}
	c.busyUntil = depart
	c.queue = append(c.queue, chunk{
		data:   append([]byte(nil), b...),
		enq:    now,
		depart: depart,
		due:    depart.Add(c.shape.Delay),
	})
	c.queued += len(b)
	c.stats.TxBytes.Add(int64(len(b)))
	c.cond.Broadcast()
	return len(b), nil
}

// pump delivers queued chunks at their due times until the conn is
// closed and drained, or the underlying conn fails.
func (c *linkConn) pump() {
	defer close(c.done)
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if len(c.queue) == 0 {
			c.mu.Unlock()
			return
		}
		ch := c.queue[0]
		c.mu.Unlock()

		if d := time.Until(ch.due); d > 0 {
			time.Sleep(d)
		}
		_, err := c.Conn.Write(ch.data)
		delivered := time.Now()

		c.mu.Lock()
		c.queue[0] = chunk{}
		c.queue = c.queue[1:]
		c.queued -= len(ch.data)
		if err != nil && c.err == nil {
			c.err = err
		}
		failed := c.err != nil
		c.cond.Broadcast()
		c.mu.Unlock()
		if failed {
			return
		}
		c.stats.Chunks.Add(1)
		c.stats.QueueNs.Add(int64(ch.depart.Sub(ch.enq)))
		c.stats.LateNs.Add(int64(delivered.Sub(ch.due)))
		if c.tracer != nil {
			track := c.dir
			if p := c.track.Load(); p != nil {
				track = *p
			}
			clock := c.tracer.Now()
			c.tracer.Record(track, "link:"+c.dir, "link",
				clock-delivered.Sub(ch.enq), delivered.Sub(ch.enq))
		}
	}
}

// Close delivers what is still queued, then closes the underlying conn.
// A write deadline keeps a peer that stopped reading from holding Close
// forever.
func (c *linkConn) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.cond.Broadcast()
		c.mu.Unlock()
		_ = c.Conn.SetWriteDeadline(time.Now().Add(time.Second + c.shape.Delay))
		<-c.done
		c.closeErr = c.Conn.Close()
	})
	return c.closeErr
}

// linkListener wraps every accepted conn in a linkConn over one shape;
// wrap, when set, decorates the result further (the server-side
// service timer).
type linkListener struct {
	net.Listener
	shape  Shape
	stats  *LinkStats
	tracer *obs.Tracer
	wrap   func(*linkConn) net.Conn
}

func (l *linkListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	lc := newLinkConn(conn, l.shape, l.stats, l.tracer, "down")
	if l.wrap != nil {
		return l.wrap(lc), nil
	}
	return lc, nil
}
