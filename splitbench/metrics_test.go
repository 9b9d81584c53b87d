package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"menos/internal/obs"
)

func TestSummarizeQuantilesAndCount(t *testing.T) {
	xs := make([]float64, 0, 101)
	for i := 100; i >= 0; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	d := summarize(xs)
	if d.N != 101 || d.P50 != 50 || d.P90 != 90 {
		t.Fatalf("summarize(0..100) = %+v, want N=101 P50=50 P90=90", d)
	}
	if xs[0] != 100 {
		t.Fatal("summarize reordered its input")
	}
	// Linear interpolation between order statistics.
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Fatalf("p90 of 1..4 = %v, want 3.7", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("p90 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(summarize(nil).P50) {
		t.Fatal("median of no samples should be NaN")
	}
}

func TestBeyondCountsTailSamples(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{100, 0.9, 10}, // the smallest sample whose p90 has ten beyond it
		{99, 0.9, 9},
		{240, 0.9, 24},
		{240, 0.5, 120},
		{0, 0.9, 0},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestCounterDeltasPerIteration(t *testing.T) {
	before := counters{CPU: time.Second, AllocBytes: 1000, AllocObjects: 10, GCCycles: 3, GCPause: time.Millisecond}
	after := counters{CPU: 3 * time.Second, AllocBytes: 5000, AllocObjects: 50, GCCycles: 7, GCPause: 5 * time.Millisecond}
	got := after.sub(before).perIter(4)
	want := perIter{CPUSeconds: 0.5, AllocBytes: 1000, AllocObjects: 10, GCCycles: 1, GCPauseSeconds: 0.001}
	if got != want {
		t.Fatalf("per-iteration deltas = %+v, want %+v", got, want)
	}
	if p := after.sub(before).perIter(0); !math.IsNaN(p.CPUSeconds) {
		t.Fatalf("zero iterations gave %v, want NaN", p.CPUSeconds)
	}
}

var sink [][]byte

func TestReadCountersSeesAllocations(t *testing.T) {
	const n = 1000
	before := readCounters()
	for i := 0; i < n; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	d := readCounters().sub(before)
	sink = nil
	if d.AllocObjects < n || d.AllocBytes < n*4096 {
		t.Fatalf("after %d 4 KiB allocations: %d objects, %d bytes", n, d.AllocObjects, d.AllocBytes)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	for _, c := range []struct {
		name     string
		children []interval
		want     int
	}{
		{"leaf", nil, 100},
		{"disjoint children", []interval{ms(10, 20), ms(50, 80)}, 60},
		{"overlapping children count once", []interval{ms(10, 40), ms(30, 60), ms(35, 50)}, 50},
		{"nested children count once", []interval{ms(10, 90), ms(20, 30)}, 20},
		{"children clipped to the parent", []interval{ms(-20, 10), ms(95, 150)}, 85},
		{"child outside the parent", []interval{ms(200, 300)}, 100},
		{"touching children", []interval{ms(0, 50), ms(50, 100)}, 0},
	} {
		if got := selfTime(ms(0, 100), c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestAttributeBuildsIterationTree(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	span := func(track, name string, tid uint64, start, end int) obs.Span {
		return obs.Span{Track: track, Name: name, TraceID: tid, Start: ms(start), Dur: ms(end - start)}
	}
	spans := []obs.Span{
		// A warm-up step before the window: dropped with its subtree.
		span("c0", "step", 0, 0, 10),
		span("c0", "iteration", 1, 0, 10),
		// Two overlapping pipelined iterations under one step.
		span("c0", "step", 0, 20, 100),
		span("c0", "iteration", 2, 20, 70),
		span("c0", "iteration", 3, 40, 100),
		span("c0", "forward-rtt", 2, 22, 40),
		span("c0", "service:forward", 2, 25, 35),
		span("c0", "forward", 2, 26, 34),
		// Iteration 3's round trip lies inside iteration 2 too; the
		// trace ID decides.
		span("c0", "forward-rtt", 3, 45, 60),
		// Another client's spans never parent c0's.
		span("c1", "step", 0, 20, 100),
		span("c1", "iteration", 9, 20, 100),
		// A server span of c0 outside every step.
		span("c0", "forward", 5, 200, 210),
		span("c0", "unknown-span", 2, 30, 31),
	}
	tr := attribute(spans, ms(15))
	if len(tr.roots) != 2 || tr.orphans != 1 {
		t.Fatalf("roots %d orphans %d, want 2 and 1", len(tr.roots), tr.orphans)
	}
	got := map[string]layerRow{}
	for _, r := range tr.rows() {
		got[r.name] = r
	}
	if r := got["iteration"]; r.count != 3 {
		t.Fatalf("iteration rows count %d, want 3 (warm-up dropped)", r.count)
	}
	// Iteration 3 (40-100) holds only its own round trip (45-60).
	// Iteration 2 (20-70) holds its round trip (22-40). c1's iteration
	// has no children.
	if r := got["iteration"]; r.self != ms(50-15)+ms(60-18)+ms(80) {
		t.Fatalf("iteration self %v", r.self)
	}
	if r := got["forward-rtt"]; r.count != 2 || r.self != ms(18-10)+ms(15) {
		t.Fatalf("forward-rtt count %d self %v", r.count, r.self)
	}
	if r := got["service:forward"]; r.self != ms(2) {
		t.Fatalf("service self %v, want 2ms", r.self)
	}
	// The c0 step is covered by its overlapping iterations once.
	if r := got["step"]; r.self != 0 {
		t.Fatalf("step self %v, want 0", r.self)
	}
	if w := tr.perTrace("forward-rtt", "forward"); len(w) != 2 {
		t.Fatalf("per-trace sums %v, want one per iteration with spans", w)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the code reports —
// names, units and better-direction — equal to BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got map[string]metric, want []entry) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: code reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for _, e := range want {
			m, ok := got[e.Name]
			if !ok || m.Unit != e.Unit || m.better != e.Better {
				t.Errorf("%s %s: code has %+v (present %v), BENCHMARK.json %s/%s", kind, e.Name, m, ok, e.Unit, e.Better)
			}
		}
	}
	if len(bm.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code defines %d", len(bm.Workloads), len(workloads))
	}
	for _, wl := range bm.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Errorf("workload %q is not defined", wl.Name)
			continue
		}
		same("end_to_end", endToEnd(w, windowResult{}, 0).metrics, bm.EndToEnd)
		same("per_layer", perLayer(w, windowResult{}, windowResult{}, tree{}, directTimes{}, memory{}), bm.PerLayer)
	}
}
