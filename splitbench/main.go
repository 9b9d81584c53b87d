// Command splitbench is the repository's benchmark: it drives split
// fine-tuning workloads against a real core.Deployment over loopback
// TCP, checks the training outputs, and prints end-to-end metrics (or,
// with -trace 1, per-layer metrics plus a Chrome trace and a self-time
// table). See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"menos/internal/client"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/quant"
	"menos/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value. better ("lower" or "higher") is printed
// with the metric but is not part of the result line.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	better string
}

func lower(v float64, unit string) metric  { return metric{v, unit, "lower"} }
func higher(v float64, unit string) metric { return metric{v, unit, "higher"} }

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times a run builds its deployment and
// handshakes its clients; setup_s is their median.
const setupRuns = 7

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("splitbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: solo, shared or wan")
	seed := fs.Uint64("seed", 1, "workload seed (data order and adapter initialization)")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build/out", "directory for the traced run's Chrome trace and layer table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "splitbench: need -workload solo|shared|wan, -seconds > 0, -trace 0|1\n")
		return 2
	}
	length := time.Duration(*seconds * float64(time.Second))
	// A hung deployment must not hold the caller forever: a run takes
	// about its window plus a few seconds of set-up and checks.
	watchdog := time.AfterFunc(3*length+110*time.Second, func() {
		fmt.Fprintf(stderr, "splitbench: run did not finish, giving up\n")
		os.Exit(1)
	})
	defer watchdog.Stop()

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, length, *out, stdout)
	} else {
		res, err = runTimed(w, *seed, length, stdout)
	}
	if err != nil && res.Metrics == nil {
		fmt.Fprintf(stderr, "splitbench: %v\n", err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "splitbench: %v\n", err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "%-30s %14.6g %-8s %s is better\n", n, m.Value, m.Unit, m.better)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "splitbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// environment is recorded with every run.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	PoolWidth  int     `json:"tensor_pool_width"`
	GoVersion  string  `json:"go_version"`
}

func env(w workload, seed uint64, length time.Duration, trace int) environment {
	return environment{
		Workload: w.name, Seed: seed, Seconds: length.Seconds(), Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		PoolWidth: tensor.Parallelism(), GoVersion: runtime.Version(),
	}
}

// record prints one informational JSON line (never the last line).
func record(stdout io.Writer, kind string, v any) {
	b, err := json.Marshal(map[string]any{kind: v})
	if err == nil {
		fmt.Fprintln(stdout, string(b))
	}
}

// runTimed is the untraced run: reference trajectories, repeated
// set-up, one timed window, correctness checks, end-to-end metrics.
func runTimed(w workload, seed uint64, length time.Duration, stdout io.Writer) (result, error) {
	record(stdout, "env", env(w, seed, length, 0))
	ref, err := reference(w, seed)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	var r *rig
	for k := 0; k < setupRuns; k++ {
		rr, d, err := startRig(w, seed, allClients(w), nil)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if k < setupRuns-1 {
			rr.close()
		} else {
			r = rr
		}
	}
	fwd, bwd := r.clients[0].Demands()
	schedulable := r.dep.Server.Scheduler().Schedulable()
	win, werr := r.runWindow(seed, length, finalLossIter)
	r.close()

	e2e := endToEnd(w, win, median(setups))
	res := result{Metrics: e2e.metrics}
	res.Attempted, res.Failed = e2e.attempted, e2e.failed
	checkErr := errors.Join(checkLocal(w, seed, ref), check(w, ref, win))
	res.Correct = checkErr == nil && werr == nil
	record(stdout, "run", map[string]any{
		"samples": e2e.samples, "p90_tail_samples": beyond(e2e.samples, 0.9),
		"iterations": e2e.iters, "wall_s": win.wall.Seconds(), "setup_s": setups,
		"demand_fwd_bytes": fwd, "demand_bwd_bytes": bwd, "schedulable_bytes": schedulable,
	})
	return res, errors.Join(werr, checkErr)
}

// allClients lists every client index of w.
func allClients(w workload) []int {
	ids := make([]int, w.clients)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// e2eResult is the end-to-end metric set of one window.
type e2eResult struct {
	metrics           map[string]metric
	samples, iters    int
	attempted, failed int
	p50               float64
}

func endToEnd(w workload, win windowResult, setup float64) e2eResult {
	var samples []float64
	var out e2eResult
	for _, run := range win.runs {
		samples = append(samples, run.samples...)
		out.iters += len(run.samples)
		out.attempted += run.attempted
		out.failed += run.failed
		// A failed iteration misses any latency limit: it enters the
		// percentiles as taking the whole window.
		for k := 0; k < run.failed; k++ {
			samples = append(samples, win.wall.Seconds())
		}
	}
	out.samples = len(samples)
	d := summarize(samples)
	out.p50 = d.P50
	per := win.delta.perIter(out.iters)
	wire := float64(win.after.upTx - win.before.upTx + win.after.upRx - win.before.upRx)
	okRatio := 1.0
	if out.attempted > 0 {
		okRatio = float64(out.attempted-out.failed) / float64(out.attempted)
	}
	out.metrics = map[string]metric{
		"step_s_p50":           lower(d.P50, "s"),
		"step_s_p90":           lower(d.P90, "s"),
		"train_tokens_per_s":   higher(float64(out.iters*batchSize*seqLen)/win.wall.Seconds(), "tokens/s"),
		"setup_s":              lower(setup, "s"),
		"cpu_s_per_iter":       lower(per.CPUSeconds, "s"),
		"alloc_bytes_per_iter": lower(per.AllocBytes, "bytes"),
		"allocs_per_iter":      lower(per.AllocObjects, "count"),
		"wire_bytes_per_iter":  lower(wire/float64(out.iters), "bytes"),
		"step_ok_ratio":        higher(okRatio, "ratio"),
		"final_loss":           lower(finalLoss(win.runs), "nats"),
	}
	return out
}

// finalLoss is the mean over clients of the loss after finalLossIter
// iterations (NaN if a client never got there).
func finalLoss(runs []clientRun) float64 {
	var sum float64
	for _, run := range runs {
		if len(run.losses) < finalLossIter {
			return math.NaN()
		}
		sum += run.losses[finalLossIter-1]
	}
	return sum / float64(len(runs))
}

// int8ParityTol is the final-loss tolerance TestWireConvergenceParity
// (internal/client) allows an int8 wire against fp32.
const int8ParityTol = 0.1

// reference returns each client's first finalLossIter losses, run
// outside any timed window: alone on its own deployment for workloads
// whose arithmetic the run must reproduce bit for bit, and over an fp32
// unshaped wire for the compressed workload.
func reference(w workload, seed uint64) ([][]float64, error) {
	ref := make([][]float64, w.clients)
	rw := w
	groups := [][]int{}
	if w.codec != quant.CodecFP32 {
		rw.codec, rw.up, rw.down = 0, Shape{}, Shape{}
		groups = append(groups, allClients(w))
	} else {
		for i := 0; i < w.clients; i++ {
			groups = append(groups, []int{i})
		}
	}
	for _, g := range groups {
		r, _, err := startRig(rw, seed, g, nil)
		if err != nil {
			return ref, fmt.Errorf("reference: %w", err)
		}
		for k, i := range g {
			loader, err := newLoader(seed, i)
			if err != nil {
				r.close()
				return ref, err
			}
			for len(ref[i]) < finalLossIter {
				res, err := r.call(r.clients[k], loader)
				if err != nil {
					r.close()
					return ref, fmt.Errorf("reference client %d: %w", i, err)
				}
				for _, s := range res {
					ref[i] = append(ref[i], s.Loss)
				}
			}
			ref[i] = ref[i][:finalLossIter]
		}
		r.close()
	}
	return ref, nil
}

// localTol is the loss difference TestSplitFineTuningEqualsLocal
// (internal/server) allows between split and single-device training.
const localTol = 1e-5

// checkLocal holds the reference trajectories to the paper's
// convergence claim: split fine-tuning computes what training the same
// adapters on one device — no split, no wire, no server — computes,
// step for step.
func checkLocal(w workload, seed uint64, ref [][]float64) error {
	var errs []error
	for i, want := range ref {
		got, err := localLosses(w, seed, i)
		if err != nil {
			return fmt.Errorf("local reference client %d: %w", i, err)
		}
		for k := range want {
			if !(math.Abs(got[k]-want[k]) <= localTol) {
				errs = append(errs, fmt.Errorf("client %d: split loss %v at iteration %d, on one device %v", i, want[k], k, got[k]))
				break
			}
		}
	}
	return errors.Join(errs...)
}

// localLosses trains client i's adapters on one device over the same
// data: the client's adapter on blocks [0, cut) and the server's on
// [cut, L), each seeded and optimized as the split run seeds and
// optimizes them, one optimizer step per client call.
func localLosses(w workload, seed uint64, i int) ([]float64, error) {
	cfg := clientSpec(w, seed, i)
	m, err := model.New(tensor.NewRNG(cfg.WeightSeed), cfg.Model)
	if err != nil {
		return nil, err
	}
	m.SetFrozenBase(true)
	cut := model.DefaultCut
	onClient, err := cfg.Adapter.Inject(tensor.NewRNG(cfg.AdapterSeed^client.AdapterSalt), m.Blocks[:cut], cfg.Model.Dim)
	if err != nil {
		return nil, err
	}
	onServer, err := cfg.Adapter.Inject(tensor.NewRNG(cfg.AdapterSeed), m.Blocks[cut:], cfg.Model.Dim)
	if err != nil {
		return nil, err
	}
	loader, err := newLoader(seed, i)
	if err != nil {
		return nil, err
	}
	const lr = 1e-3 // client.Config's default, which the split run uses
	opts := []nn.Optimizer{nn.NewAdam(lr), nn.NewAdam(lr)}
	sides := [][]nn.Param{onClient.Params(), onServer.Params()}
	var losses []float64
	for len(losses) < finalLossIter {
		for k := 0; k < w.itersPerCall(); k++ {
			ids, targets := loader.Next()
			res, err := m.LossAndGrad(ids, targets, batchSize, seqLen)
			if err != nil {
				return nil, err
			}
			losses = append(losses, res.Loss)
		}
		for j, o := range opts {
			if err := o.Step(sides[j]); err != nil {
				return nil, err
			}
			nn.ZeroGrads(sides[j])
		}
	}
	return losses, nil
}

// check verifies a window's outputs: every loss finite; on the fp32
// workloads each client's trajectory bit-identical to the client run
// alone; on the compressed workload final_loss within the int8 parity
// tolerance of the fp32 reference.
func check(w workload, ref [][]float64, win windowResult) error {
	var errs []error
	for i, run := range win.runs {
		for k, l := range run.losses {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				errs = append(errs, fmt.Errorf("client %d: loss %v at iteration %d", i, l, k))
				break
			}
		}
		if len(run.losses) < finalLossIter {
			errs = append(errs, fmt.Errorf("client %d: %d iterations, need %d", i, len(run.losses), finalLossIter))
			continue
		}
		if w.codec == quant.CodecFP32 {
			for k, want := range ref[i] {
				if math.Float64bits(run.losses[k]) != math.Float64bits(want) {
					errs = append(errs, fmt.Errorf("client %d: loss %v at iteration %d, alone it is %v", i, run.losses[k], k, want))
					break
				}
			}
		}
	}
	if w.codec != quant.CodecFP32 {
		var sum float64
		for _, l := range ref {
			sum += l[finalLossIter-1]
		}
		want := sum / float64(len(ref))
		if got := finalLoss(win.runs); !(math.Abs(got-want) <= int8ParityTol) {
			errs = append(errs, fmt.Errorf("final loss %v, fp32 reference %v (tolerance %v)", got, want, int8ParityTol))
		}
	}
	return errors.Join(errs...)
}
