package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"menos/internal/adapter"
	"menos/internal/costmodel"
	"menos/internal/memmodel"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/obs"
	"menos/internal/profile"
	"menos/internal/quant"
	"menos/internal/share"
	"menos/internal/split"
	"menos/internal/tensor"
)

// regSnapshot holds the registry values a traced window brackets.
type regSnapshot struct {
	wireCompressed, wireRaw int64
	overlapHidden           float64
	batchFormed             int64
	batchSizeSum            float64
	batchSizeCount          int64
	batchHoldSum            float64
	batchHoldCount          int64
	transientByteSeconds    int64
}

func readRegistry(reg *obs.Registry) regSnapshot {
	size := reg.Histogram(obs.MetricBatchSize, nil)
	hold := reg.Histogram(obs.MetricBatchHold, nil)
	s := regSnapshot{
		wireCompressed: reg.Counter(obs.MetricWireCompressedBytes).Value(),
		wireRaw:        reg.Counter(obs.MetricWireRawBytes).Value(),
		overlapHidden:  reg.Histogram(obs.MetricOverlapHiddenSeconds, nil).Sum(),
		batchFormed:    reg.Counter(obs.MetricBatchFormed).Value(),
		batchSizeSum:   size.Sum(),
		batchSizeCount: size.Count(),
		batchHoldSum:   hold.Sum(),
		batchHoldCount: hold.Count(),
	}
	trans := reg.CounterVec(obs.MetricGPUTransientByteSeconds, "client")
	for _, l := range trans.Labels() {
		if c, ok := trans.Get(l); ok {
			s.transientByteSeconds += c.Value()
		}
	}
	return s
}

// runTraced is the traced run: an untraced window as the overhead
// baseline, then a traced window on a fresh deployment whose spans and
// counters give the per-layer metrics, plus direct timings of each
// layer's exported functions at the workload's shapes. The two windows
// share --seconds, so a traced run lasts about as long as a timed one.
func runTraced(w workload, seed uint64, length time.Duration, out string, stdout io.Writer) (result, error) {
	record(stdout, "env", env(w, seed, length, 1))
	length /= 2
	ref, err := reference(w, seed)
	if err != nil {
		return result{}, err
	}
	r, _, err := startRig(w, seed, allClients(w), nil)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	base, berr := r.runWindow(seed, length, finalLossIter)
	r.close()
	if berr != nil {
		return result{}, berr
	}

	tel := newTelemetry()
	r, _, err = startRig(w, seed, allClients(w), tel)
	if err != nil {
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	fwd, bwd := r.clients[0].Demands()
	sch := r.dep.Server.Scheduler()
	reserved := sch.Total() - sch.Schedulable()
	win, werr := r.runWindow(seed, length, finalLossIter)
	r.close()
	if werr != nil {
		return result{}, werr
	}

	direct, err := timeLayers(w)
	if err != nil {
		return result{}, err
	}
	tree := attribute(allSpans(tel), win.traceFrom)
	m := perLayer(w, base, win, tree, direct, memory{fwd, bwd, reserved})

	if err := writeArtifacts(out, w, seed, tel, tree, win); err != nil {
		return result{}, err
	}
	e2e := endToEnd(w, win, 0)
	res := result{Metrics: m, Attempted: e2e.attempted, Failed: e2e.failed}
	cerr := errors.Join(checkLocal(w, seed, ref), check(w, ref, base), check(w, ref, win))
	res.Correct = cerr == nil
	return res, cerr
}

// directTimes are per-call timings of layer functions called straight
// from the benchmark at the workload's shapes, without contention.
type directTimes struct {
	encode, decode             float64 // seconds per split frame
	encodeAllocs, decodeAllocs float64 // heap objects per split frame
	pack, unpack               float64 // seconds per payload; 0 when the wire is fp32
	bodyFwdBwd                 float64 // BodySection forward with grad + backward
	measure                    float64 // profile.MeasureBody
}

// timeLayers times the split frame codec, the wire codec, the body
// section and the profiler directly. Each figure is the median of
// several timed batches.
func timeLayers(w workload) (directTimes, error) {
	var d directTimes
	cfg := model.OPTTiny()
	rng := tensor.NewRNG(11)
	x := tensor.NewNormal(rng, 0.5, batchSize*seqLen, cfg.Dim)
	g := tensor.NewNormal(rng, 0.01, batchSize*seqLen, cfg.Dim)

	var packed *quant.Packed
	if w.codec != quant.CodecFP32 {
		var err error
		if packed, err = quant.Pack(x, w.codec); err != nil {
			return d, err
		}
		d.pack = medianBatch(7, 50, func() {
			_, _ = quant.Pack(x, w.codec)
		})
		d.unpack = medianBatch(7, 50, func() {
			_, _ = packed.Unpack()
		})
	}
	msgs := []split.Message{
		&split.ForwardReq{Iter: 3, Batch: batchSize, Seq: seqLen, Activations: x},
		&split.ForwardResp{Iter: 3, Activations: x},
		&split.BackwardReq{Iter: 3, Apply: true, Gradients: g},
		&split.BackwardResp{Iter: 3, Gradients: g},
	}
	if packed != nil {
		msgs = []split.Message{
			&split.ForwardReq{Iter: 3, Batch: batchSize, Seq: seqLen, Packed: packed},
			&split.ForwardResp{Iter: 3, Packed: packed},
			&split.BackwardReq{Iter: 3, Apply: true, Packed: packed},
			&split.BackwardResp{Iter: 3, Packed: packed},
		}
	}
	frames := make([][]byte, len(msgs))
	var buf bytes.Buffer
	for i, m := range msgs {
		buf.Reset()
		if err := split.WriteMessage(&buf, m); err != nil {
			return d, fmt.Errorf("encode %v: %w", m.MsgType(), err)
		}
		frames[i] = append([]byte(nil), buf.Bytes()...)
	}
	encodeAll := func() {
		for _, m := range msgs {
			buf.Reset()
			_ = split.WriteMessage(&buf, m)
		}
	}
	decodeAll := func() {
		for _, f := range frames {
			_, _ = split.ReadMessage(bytes.NewReader(f))
		}
	}
	n := float64(len(msgs))
	d.encode = medianBatch(7, 40, encodeAll) / n
	d.decode = medianBatch(7, 40, decodeAll) / n
	d.encodeAllocs = allocsPerCall(100, encodeAll) / n
	d.decodeAllocs = allocsPerCall(100, decodeAll) / n

	m, err := model.New(tensor.NewRNG(weightSeed), cfg)
	if err != nil {
		return d, err
	}
	store, err := share.NewStoreFromModel(m)
	if err != nil {
		return d, err
	}
	inst, err := store.NewInstance("direct", model.DefaultCut)
	if err != nil {
		return d, err
	}
	if _, err := inst.AttachAdapter(tensor.NewRNG(1), adapter.LoRASpec(adapter.DefaultLoRA())); err != nil {
		return d, err
	}
	body, params := inst.Body(), inst.AdapterParams()
	var ferr error
	d.bodyFwdBwd = medianBatch(9, 3, func() {
		_, cache, err := body.Forward(x, batchSize, seqLen, true)
		if err == nil {
			_, err = body.Backward(cache, g)
		}
		nn.ZeroGrads(params)
		if err != nil {
			ferr = err
		}
	})
	d.measure = medianBatch(7, 2, func() {
		if _, err := profile.MeasureBody(body, params, batchSize, seqLen, cfg.Dim, 5); err != nil {
			ferr = err
		}
	})
	return d, ferr
}

// medianBatch runs f once to warm up, then times batches of reps calls
// and returns the median seconds per call.
func medianBatch(batches, reps int, f func()) float64 {
	f()
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		per[b] = time.Since(t0).Seconds() / float64(reps)
	}
	return median(per)
}

// allocsPerCall is the mean number of heap objects one call of f
// allocates, read from runtime/metrics around reps calls.
func allocsPerCall(reps int, f func()) float64 {
	f()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	for i := 0; i < reps; i++ {
		f()
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-before) / float64(reps)
}

// spanLayer places a span name in the blocking path of an iteration:
// the package it times and its depth below the benchmark's step span.
type spanLayer struct {
	layer string
	depth int
}

var spanLayers = map[string]spanLayer{
	"step":             {"bench", 0},
	"iteration":        {"client", 1},
	"input-forward":    {"client", 2},
	"output-loss":      {"client", 2},
	"input-backward":   {"client", 2},
	"forward-rtt":      {"client", 2},
	"backward-rtt":     {"client", 2},
	"service:forward":  {"server", 3},
	"service:backward": {"server", 3},
	"link:up":          {"link", 3},
	"link:down":        {"link", 3},
	"wait:forward":     {"sched", 4},
	"wait:backward":    {"sched", 4},
	"forward":          {"model", 4},
	"backward":         {"model", 4},
	"release":          {"sched", 4},
}

// node is one span in the attribution tree.
type node struct {
	span     obs.Span
	depth    int
	children []*node
}

func (n *node) interval() interval { return interval{n.span.Start, n.span.End()} }

// tree is the attribution of a traced window: the step spans that
// started inside it, with every span of their iterations below them.
type tree struct {
	roots   []*node
	orphans int // spans of known layers with no enclosing span
}

func allSpans(tel *telemetry) []obs.Span {
	var spans []obs.Span
	for _, t := range []*obs.Tracer{tel.server, tel.clients, tel.bench} {
		spans = append(spans, t.Spans()...)
	}
	return spans
}

// attribute builds the span tree. Spans are grouped by track (every
// process names its tracks by client ID); a span's parent is the
// deepest shallower span on its track whose interval holds the span's
// midpoint and whose trace ID is unset or equal to its own. Roots
// starting before from (warm-up) are dropped with their subtrees.
func attribute(spans []obs.Span, from time.Duration) tree {
	byTrack := map[string][]*node{}
	for _, s := range spans {
		if l, ok := spanLayers[s.Name]; ok {
			byTrack[s.Track] = append(byTrack[s.Track], &node{span: s, depth: l.depth})
		}
	}
	var t tree
	tracks := make([]string, 0, len(byTrack))
	for k := range byTrack {
		tracks = append(tracks, k)
	}
	sort.Strings(tracks)
	for _, track := range tracks {
		nodes := byTrack[track]
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].span.Start < nodes[j].span.Start })
		var longest time.Duration
		for _, n := range nodes {
			longest = max(longest, n.span.Dur)
		}
		for i, n := range nodes {
			if n.depth == 0 {
				if n.span.Start >= from {
					t.roots = append(t.roots, n)
				}
				continue
			}
			mid := n.span.Start + n.span.Dur/2
			var parent *node
			// Scan back from the last span starting by the midpoint; no
			// span starting more than the longest duration earlier can
			// still be open.
			j := sort.Search(len(nodes), func(k int) bool { return nodes[k].span.Start > mid }) - 1
			for ; j >= 0 && nodes[j].span.Start >= mid-longest; j-- {
				p := nodes[j]
				if j == i || p.depth >= n.depth || mid > p.span.End() {
					continue
				}
				if p.span.TraceID != 0 && n.span.TraceID != 0 && p.span.TraceID != n.span.TraceID {
					continue
				}
				if parent == nil || p.depth > parent.depth {
					parent = p
				}
				if parent.depth == n.depth-1 {
					break
				}
			}
			if parent == nil {
				if n.span.Start >= from {
					t.orphans++
				}
				continue
			}
			parent.children = append(parent.children, n)
		}
	}
	return t
}

// layerRow aggregates one span name over a window.
type layerRow struct {
	layer, name string
	depth       int
	count       int
	total, self time.Duration
}

// walk calls f on every node of the tree, parents before children.
func (t tree) walk(f func(*node)) {
	var rec func(n *node)
	rec = func(n *node) {
		f(n)
		for _, c := range n.children {
			rec(c)
		}
	}
	for _, r := range t.roots {
		rec(r)
	}
}

// rows sums, per span name, durations and self time (duration minus
// the union of its children's intervals).
func (t tree) rows() []layerRow {
	agg := map[string]*layerRow{}
	t.walk(func(n *node) {
		r := agg[n.span.Name]
		if r == nil {
			l := spanLayers[n.span.Name]
			r = &layerRow{layer: l.layer, name: n.span.Name, depth: l.depth}
			agg[n.span.Name] = r
		}
		kids := make([]interval, len(n.children))
		for i, c := range n.children {
			kids[i] = c.interval()
		}
		r.count++
		r.total += n.span.Dur
		r.self += selfTime(n.interval(), kids)
	})
	rows := make([]layerRow, 0, len(agg))
	for _, r := range agg {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].depth != rows[j].depth {
			return rows[i].depth < rows[j].depth
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// perTrace sums, per trace ID, the durations of the spans with the
// given names: one figure per iteration.
func (t tree) perTrace(names ...string) []float64 {
	sums := map[uint64]float64{}
	t.walk(func(n *node) {
		for _, name := range names {
			if n.span.Name == name {
				sums[n.span.TraceID] += n.span.Dur.Seconds()
			}
		}
	})
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// durations lists the durations of every span named name in the tree.
func (t tree) durations(name string) []float64 {
	var out []float64
	t.walk(func(n *node) {
		if n.span.Name == name {
			out = append(out, n.span.Dur.Seconds())
		}
	})
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or zero when b is.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics. Span- and registry-derived
// figures come from the traced window; GC counters and the cost-model
// readout from the untraced one, which tracing does not perturb.
// memory is the scheduler's view of the traced deployment: one client's
// profiled demands and the bytes held by persistent reservations.
type memory struct{ fwd, bwd, reserved int64 }

func perLayer(w workload, base, win windowResult, t tree, d directTimes, mem memory) map[string]metric {
	var comp, comm time.Duration
	for _, run := range win.runs {
		comp += run.comp
		comm += run.comm
	}
	n := float64(win.iters())
	b, a := win.before, win.after

	fwdSvc, bwdSvc := t.durations("service:forward"), t.durations("service:backward")
	waits := append(t.durations("wait:forward"), t.durations("wait:backward")...)
	fwdComp, bwdComp := t.durations("forward"), t.durations("backward")
	service := sum(fwdSvc) + sum(bwdSvc)
	requests := float64(len(fwdSvc) + len(bwdSvc))
	iterWaits := t.perTrace("wait:forward", "wait:backward")
	waitDist := summarize(iterWaits)
	if len(iterWaits) == 0 {
		waitDist = dist{}
	}

	wireRatio := 1.0
	if raw := a.reg.wireRaw - b.reg.wireRaw; raw > 0 {
		wireRatio = float64(a.reg.wireCompressed-b.reg.wireCompressed) / float64(raw)
	}
	formed := float64(a.reg.batchFormed - b.reg.batchFormed)
	sizeMean := ratio(a.reg.batchSizeSum-b.reg.batchSizeSum, float64(a.reg.batchSizeCount-b.reg.batchSizeCount))
	occupancy := 0.0
	if w.batch.MaxSize > 0 {
		occupancy = sizeMean / float64(w.batch.MaxSize)
	}

	gc := base.delta.perIter(base.iters())
	baseP50 := endToEnd(w, base, 0).p50
	chunks := float64(a.chunks - b.chunks)

	return map[string]metric{
		"client.compute_s":        lower(comp.Seconds()/n, "s"),
		"client.rtt_s":            lower(comm.Seconds()/n, "s"),
		"client.overlap_hidden_s": higher((a.reg.overlapHidden-b.reg.overlapHidden)/n, "s"),

		"split.encode_s":        lower(d.encode, "s"),
		"split.decode_s":        lower(d.decode, "s"),
		"split.encode_allocs":   lower(d.encodeAllocs, "count"),
		"split.decode_allocs":   lower(d.decodeAllocs, "count"),
		"split.frames_per_iter": lower(float64(a.frames-b.frames)/n, "count"),

		"quant.pack_s":     lower(d.pack, "s"),
		"quant.unpack_s":   lower(d.unpack, "s"),
		"quant.wire_ratio": lower(wireRatio, "ratio"),

		"server.service_fwd_s": lower(mean(fwdSvc), "s"),
		"server.service_bwd_s": lower(mean(bwdSvc), "s"),
		"server.compute_fwd_s": lower(mean(fwdComp), "s"),
		"server.compute_bwd_s": lower(mean(bwdComp), "s"),
		"server.release_s":     lower(mean(t.durations("release")), "s"),
		"server.overhead_s":    lower(ratio(service-sum(waits)-sum(fwdComp)-sum(bwdComp), requests), "s"),

		"model.body_fwd_bwd_s": lower(d.bodyFwdBwd, "s"),

		"sched.wait_s_p50":              lower(waitDist.P50, "s"),
		"sched.wait_s_p90":              lower(waitDist.P90, "s"),
		"sched.wait_share":              lower(ratio(sum(waits), service), "ratio"),
		"sched.grants_per_iter":         lower(float64(a.sched.Granted-b.sched.Granted)/n, "count"),
		"sched.backfilled":              higher(float64(a.sched.Backfilled-b.sched.Backfilled)/n, "count"),
		"sched.queue_depth_max":         lower(float64(a.sched.MaxQueueDepth), "count"),
		"sched.demand_fwd_bytes":        lower(float64(mem.fwd), "bytes"),
		"sched.demand_bwd_bytes":        lower(float64(mem.bwd), "bytes"),
		"sched.reserved_bytes":          lower(float64(mem.reserved), "bytes"),
		"gpu.transient_byte_s_per_iter": lower(float64(a.reg.transientByteSeconds-b.reg.transientByteSeconds)/n, "byte.s"),

		"profile.measure_s": lower(d.measure, "s"),

		"batch.formed_per_iter": lower(formed/n, "count"),
		"batch.size_mean":       higher(sizeMean, "count"),
		"batch.occupancy":       higher(occupancy, "ratio"),
		"batch.hold_s":          lower(ratio(a.reg.batchHoldSum-b.reg.batchHoldSum, float64(a.reg.batchHoldCount-b.reg.batchHoldCount)), "s"),

		"obs.trace_overhead": lower(endToEnd(w, win, 0).p50/baseP50-1, "ratio"),

		"runtime.gc_cycles_per_iter":  lower(gc.GCCycles, "count"),
		"runtime.gc_pause_s_per_iter": lower(gc.GCPauseSeconds, "s"),

		"link.queue_s_per_iter": lower(float64(a.queueNs-b.queueNs)/1e9/n, "s"),
		"link.late_s":           lower(ratio(float64(a.lateNs-b.lateNs)/1e9, chunks), "s"),

		"costmodel.step_ratio": higher(predictStep(w, d.bodyFwdBwd, base)/baseP50, "ratio"),
	}
}

// predictStep feeds the measured body throughput to the simulator's
// cost model and returns its step time (per microbatch on a pipelined
// workload) for the workload's geometry and the link bytes the
// untraced window moved.
func predictStep(w workload, bodyFwdBwd float64, base windowResult) float64 {
	wl := memmodel.Workload{
		Model: model.OPTTiny(), Cut: model.DefaultCut,
		Adapter: adapter.LoRASpec(adapter.DefaultLoRA()), Optimizer: memmodel.OptAdam,
		Batch: batchSize, Seq: seqLen,
	}
	unit := costmodel.New(costmodel.Perf{EffectiveFLOPS: 1}, wl)
	flops := (unit.ForwardTime(wl) + unit.BackwardTime(wl)).Seconds()
	perf := costmodel.Perf{Name: "measured", EffectiveFLOPS: flops / bodyFwdBwd}
	cm := costmodel.New(perf, wl)
	server := cm.NoGradForwardTime(wl) + cm.ForwardTime(wl) + cm.BackwardTime(wl) + cm.ReleaseOverhead(w.clients)
	clientLeg := costmodel.ClientComputeTime(perf, wl)

	var wire time.Duration
	if w.up.shaped() || w.down.shaped() {
		up := float64(base.after.upTx-base.before.upTx) / float64(base.iters())
		down := float64(base.after.downTx-base.before.downTx) / float64(base.iters())
		wire = 2*w.up.Delay + 2*w.down.Delay +
			time.Duration((up/w.up.BytesPerSec+down/w.down.BytesPerSec)*float64(time.Second))
	}
	if w.micro > 0 {
		return costmodel.OverlapStepTime(wire+server, clientLeg).Seconds()
	}
	return (clientLeg + server + wire).Seconds()
}

// writeArtifacts writes the traced window's merged Chrome trace and its
// per-layer self-time table under dir.
func writeArtifacts(dir string, w workload, seed uint64, tel *telemetry, t tree, win windowResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, seed))
	f, err := os.Create(stem + ".trace.json")
	if err != nil {
		return err
	}
	if err := obs.WriteMergedChromeTrace(f, tel.server, tel.clients, tel.bench); err != nil {
		_ = f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Create(stem + ".layers.txt")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	writeTable(bw, w, t, win)
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// writeTable prints the per-layer self-time table: for every span name
// on the iterations' blocking path, its count, time and self time per
// iteration, and the self share of step time. The step row's self time
// is the remainder no layer's span covers.
func writeTable(out io.Writer, w workload, t tree, win windowResult) {
	iters := win.iters()
	rows := t.rows()
	var step time.Duration
	for _, r := range rows {
		if r.depth == 0 {
			step = r.total
		}
	}
	per := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(iters) }
	fmt.Fprintf(out, "workload %s: %d iterations in %d step spans, %.3f s of step time, %d unparented spans\n",
		w.name, iters, len(t.roots), step.Seconds(), t.orphans)
	fmt.Fprintf(out, "%-7s %-17s %8s %14s %14s %8s\n", "layer", "span", "count", "total ms/iter", "self ms/iter", "self %")
	var attributed time.Duration
	for _, r := range rows {
		name := r.name
		if r.depth == 0 {
			name += " (unattributed)"
		} else {
			attributed += r.self
		}
		fmt.Fprintf(out, "%-7s %-17s %8d %14.3f %14.3f %7.1f%%\n",
			r.layer, name, r.count, per(r.total), per(r.self), 100*ratio(r.self.Seconds(), step.Seconds()))
	}
	fmt.Fprintf(out, "attributed self time %.3f ms/iter; overlapping work below one step (pipelined microbatches) can exceed 100%%\n",
		per(attributed))
}
