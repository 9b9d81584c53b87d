package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"menos/internal/adapter"
	"menos/internal/client"
	"menos/internal/core"
	"menos/internal/data"
	"menos/internal/gpu"
	"menos/internal/model"
	"menos/internal/obs"
	"menos/internal/quant"
	"menos/internal/sched"
)

// Geometry shared by every workload: OPT-tiny, LoRA r=8 on q/v,
// batch 4 × seq 32, split after block 1.
const (
	batchSize  = 4
	seqLen     = 32
	weightSeed = 7
	// finalLossIter is the fixed sample count (iterations per client;
	// microbatches on a pipelined workload) after which final_loss is
	// read, and the prefix the bit-identity check compares.
	finalLossIter = 16
	// warmupIters run before the timed window opens, so lazily built
	// pools, arenas and optimizer state are in place.
	warmupIters = 4
)

// sharedGPUBytes is the device budget of the "shared" workload, fixed
// at the commit that introduced the benchmark: 269,514,240 bytes for
// the base model and both clients' persistent reservations (adapter
// state plus the 128 MiB process context each), plus 3.5 MiB of
// schedulable memory. Profiling asked for 128 KiB per no-grad forward
// and 2.18 MiB per backward at that commit, so one backward and one
// backfilled forward fit together but two backwards never do. It stays
// a constant: a change that shrinks the profiled demands shows up as
// throughput.
const sharedGPUBytes = 269_514_240 + 7<<19

// workload is one traffic mix the benchmark drives over loopback TCP.
type workload struct {
	name    string
	clients int
	codec   quant.Codec
	// micro > 0 steps each client with StepPipelined over micro
	// microbatches; 0 steps with sequential Client.Step.
	micro    int
	gpuBytes int64 // 0 = the default (ample) device
	batch    sched.BatchPolicy
	up, down Shape
}

// The wan link: an fp32 iteration moves 4 × 32 KiB, which at 2 MiB/s is
// 62 ms of serialization plus 4 × 5 ms of propagation — the order of a
// solo step's compute, the balance of the paper's Tables 1 and 2.
var wanShape = Shape{BytesPerSec: 2 << 20, Delay: 5 * time.Millisecond}

var workloads = map[string]workload{
	"solo":   {name: "solo", clients: 1},
	"shared": {name: "shared", clients: 2, gpuBytes: sharedGPUBytes},
	"wan": {name: "wan", clients: 2, codec: quant.CodecInt8, micro: 4,
		batch: sched.BatchPolicy{MaxSize: 2}, up: wanShape, down: wanShape},
}

// itersPerCall is how many iterations (microbatches) one client call
// completes.
func (w workload) itersPerCall() int { return max(w.micro, 1) }

// clientSpec derives client i's configuration and data stream from the
// run seed.
func clientSpec(w workload, seed uint64, i int) client.Config {
	return client.Config{
		ClientID:    fmt.Sprintf("c%d", i),
		Model:       model.OPTTiny(),
		WeightSeed:  weightSeed,
		Adapter:     adapter.LoRASpec(adapter.DefaultLoRA()),
		AdapterSeed: seed*131 + uint64(i) + 1,
		Batch:       batchSize,
		Seq:         seqLen,
		WireCodec:   w.codec,
	}
}

// corpus is the token stream every loader samples from.
var corpus = sync.OnceValues(func() ([]int, error) {
	tok, err := data.NewCharTokenizer(data.Shakespeare(), model.OPTTiny().Vocab)
	if err != nil {
		return nil, err
	}
	return tok.Encode(data.Shakespeare())
})

func newLoader(seed uint64, i int) (*data.Loader, error) {
	tokens, err := corpus()
	if err != nil {
		return nil, err
	}
	return data.NewLoader(tokens, batchSize, seqLen, seed*7919+uint64(i)+1)
}

// telemetry is what a traced rig records into: one registry shared by
// the server and its clients, and one tracer per process role on one
// clock, so their spans line up in a merged trace.
type telemetry struct {
	reg                    *obs.Registry
	server, clients, bench *obs.Tracer
}

func newTelemetry() *telemetry {
	clock := obs.NewWallClock()
	t := &telemetry{reg: obs.NewRegistry(), server: obs.NewTracer(clock),
		clients: obs.NewTracer(clock), bench: obs.NewTracer(clock)}
	t.server.SetProcess(1, "menos-server")
	t.clients.SetProcess(2, "menos-clients")
	t.bench.SetProcess(3, "splitbench")
	return t
}

// rig is one running deployment with its connected clients.
type rig struct {
	w        workload
	dep      *core.Deployment
	serveErr chan error
	clients  []*client.Client
	ids      []string
	up, down LinkStats
	frames   atomic.Int64 // split frames seen at the server's conns
	tel      *telemetry   // nil when untraced
}

// startRig builds a deployment, serves it on a loopback listener
// wrapped by the down link and the service timer, and handshakes the
// given clients through their up links. The returned duration covers
// NewDeployment through the last handshake.
func startRig(w workload, seed uint64, which []int, tel *telemetry) (*rig, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	r := &rig{w: w, tel: tel, serveErr: make(chan error, 1)}
	cfg := core.DeploymentConfig{Model: model.OPTTiny(), WeightSeed: weightSeed, Batch: w.batch, WireCodec: w.codec}
	if w.gpuBytes > 0 {
		cfg.GPU = gpu.Spec{Name: "bench-shared", MemoryBytes: w.gpuBytes}
	}
	var benchTracer *obs.Tracer
	if tel != nil {
		cfg.Metrics, cfg.Tracer, benchTracer = tel.reg, tel.server, tel.bench
	}

	start := time.Now()
	r.dep, err = core.NewDeployment(cfg)
	if err != nil {
		_ = ln.Close()
		return nil, 0, fmt.Errorf("deployment: %w", err)
	}
	wrapped := &linkListener{Listener: ln, shape: w.down, stats: &r.down, tracer: benchTracer,
		wrap: func(lc *linkConn) net.Conn { return newServiceConn(lc, &r.frames, benchTracer) }}
	go func() { r.serveErr <- r.dep.Server.Serve(wrapped) }()

	for _, i := range which {
		cc := clientSpec(w, seed, i)
		if tel != nil {
			cc.Metrics, cc.Tracer = tel.reg, tel.clients
		}
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.close()
			return nil, 0, fmt.Errorf("dial: %w", err)
		}
		lc := newLinkConn(conn, w.up, &r.up, benchTracer, "up")
		lc.setTrack(cc.ClientID)
		c, err := client.New(lc, cc)
		if err != nil {
			_ = lc.Close()
			r.close()
			return nil, 0, fmt.Errorf("client %s: %w", cc.ClientID, err)
		}
		r.clients = append(r.clients, c)
		r.ids = append(r.ids, cc.ClientID)
	}
	return r, time.Since(start), nil
}

// close hangs up every client, then stops the server and waits for its
// serve loop.
func (r *rig) close() {
	for _, c := range r.clients {
		_ = c.Close()
	}
	r.clients = nil
	_ = r.dep.Close()
	<-r.serveErr
}

// clientRun is one client's record of a run.
type clientRun struct {
	losses    []float64 // every completed iteration, warm-up included
	samples   []float64 // seconds per iteration inside the timed window
	attempted int       // iterations attempted inside the timed window
	failed    int
	comp      time.Duration // client-reported compute inside the window
	comm      time.Duration // client-reported round trips inside the window
	err       error
}

// window is the timed part of a run, shared by all client loops.
type window struct {
	start    chan struct{} // closed when the timed window opens
	deadline time.Time
}

// drive runs client i's closed loop: warm-up iterations, then — once
// the window opens — calls until the deadline has passed and at least
// minIters iterations have completed in total. A failed call ends the
// loop: it counts as failed and as missing any latency limit.
func (r *rig) drive(i int, loader *data.Loader, minIters int, win *window, ready *sync.WaitGroup) clientRun {
	c, id := r.clients[i], r.ids[i]
	per := r.w.itersPerCall()
	var run clientRun
	timed := false
	for {
		if !timed && len(run.losses) >= warmupIters {
			ready.Done()
			<-win.start
			timed = true
		}
		if timed && !time.Now().Before(win.deadline) && len(run.losses) >= minIters {
			return run
		}
		var tid uint64
		if r.tel != nil && per == 1 {
			tid = obs.IterTraceID(id, len(run.losses))
		}
		var sp *obs.SpanHandle
		if r.tel != nil {
			sp = r.tel.bench.BeginT(id, "step", "bench", tid)
		}
		t0 := time.Now()
		results, err := r.call(c, loader)
		d := time.Since(t0)
		sp.End()
		if timed {
			run.attempted += per
		}
		if err != nil {
			run.err = err
			if !timed {
				ready.Done()
				run.attempted = per
			}
			run.failed = run.attempted - len(run.samples)
			return run
		}
		for _, res := range results {
			run.losses = append(run.losses, res.Loss)
			if timed {
				run.samples = append(run.samples, d.Seconds()/float64(per))
				run.comp += res.CompTime
				run.comm += res.CommTime
			}
		}
	}
}

// call performs one closed-loop call: a Step, or a pipelined group.
func (r *rig) call(c *client.Client, loader *data.Loader) ([]client.StepResult, error) {
	if r.w.micro == 0 {
		ids, targets := loader.Next()
		res, err := c.Step(ids, targets)
		return []client.StepResult{res}, err
	}
	mbs := make([]client.MicroBatch, r.w.micro)
	for k := range mbs {
		ids, targets := loader.Next()
		mbs[k] = client.MicroBatch{IDs: ids, Targets: targets}
	}
	res, err := c.StepPipelined(mbs)
	if err == nil && len(res) != len(mbs) {
		err = fmt.Errorf("pipelined step returned %d results for %d microbatches", len(res), len(mbs))
	}
	return res, err
}

// windowResult is a whole rig's timed window.
type windowResult struct {
	runs  []clientRun
	wall  time.Duration
	delta counters
	// Counter snapshots bracketing the window.
	before, after rigSnapshot
	// traceFrom is the tracers' clock when the window opened (traced
	// rigs only).
	traceFrom time.Duration
}

// iters is the number of iterations completed inside the window.
func (w windowResult) iters() int {
	n := 0
	for _, run := range w.runs {
		n += len(run.samples)
	}
	return n
}

// runWindow drives every client of the rig concurrently for the given
// length, after the warm-up, bracketing the window with counter
// snapshots.
func (r *rig) runWindow(seed uint64, length time.Duration, minIters int) (windowResult, error) {
	loaders := make([]*data.Loader, len(r.clients))
	for i := range loaders {
		l, err := newLoader(seed, i)
		if err != nil {
			return windowResult{}, err
		}
		loaders[i] = l
	}
	win := &window{start: make(chan struct{})}
	var ready, done sync.WaitGroup
	res := windowResult{runs: make([]clientRun, len(r.clients))}
	ready.Add(len(r.clients))
	done.Add(len(r.clients))
	for i := range r.clients {
		go func(i int) {
			defer done.Done()
			res.runs[i] = r.drive(i, loaders[i], minIters, win, &ready)
		}(i)
	}
	ready.Wait()
	res.before = r.snapshot()
	if r.tel != nil {
		res.traceFrom = r.tel.bench.Now()
	}
	c0 := readCounters()
	t0 := time.Now()
	win.deadline = t0.Add(length)
	close(win.start)
	done.Wait()
	res.wall = time.Since(t0)
	res.delta = readCounters().sub(c0)
	res.after = r.snapshot()
	var errs []error
	for i, run := range res.runs {
		if run.err != nil {
			errs = append(errs, fmt.Errorf("client %s: %w", r.ids[i], run.err))
		}
	}
	return res, errors.Join(errs...)
}

// rigSnapshot is the counter state of a rig at one instant.
type rigSnapshot struct {
	upTx, upRx, downTx, downRx int64
	chunks, queueNs, lateNs    int64
	frames                     int64
	sched                      sched.Stats
	reg                        regSnapshot
}

func (r *rig) snapshot() rigSnapshot {
	s := rigSnapshot{
		upTx: r.up.TxBytes.Load(), upRx: r.up.RxBytes.Load(),
		downTx: r.down.TxBytes.Load(), downRx: r.down.RxBytes.Load(),
		chunks:  r.up.Chunks.Load() + r.down.Chunks.Load(),
		queueNs: r.up.QueueNs.Load() + r.down.QueueNs.Load(),
		lateNs:  r.up.LateNs.Load() + r.down.LateNs.Load(),
		frames:  r.frames.Load(),
		sched:   r.dep.Server.Scheduler().Stats(),
	}
	if r.tel != nil {
		s.reg = readRegistry(r.tel.reg)
	}
	return s
}
