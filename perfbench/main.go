// Command perfbench is the repository's end-to-end benchmark. It runs
// the configuration cmd/powerd and cmd/powercoord ship — daemon with
// metrics, flight recorder, decision journal and energy ledger; room,
// row and building tiers with tracer, fleet rollup and metrics — on one
// of three seeded workloads, times every layer from outside through its
// public calls, checks that the program's outputs are correct, and
// prints one JSON result as its last line of output:
//
//	bash perfbench/run.sh --workload node_slo --seed 1 --seconds 20 --trace 0
//
// A run repeats a deterministic pass (set-up, warm-up, a fixed number of
// measured control intervals or coordinator rounds) until --seconds have
// passed; every pass of a run must reproduce the same simulated
// outcomes. With --trace 1, passes alternate untraced and traced, the
// traced ones time each layer and record spans, and the run reports the
// per-layer metrics and the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name     string
	node     bool // a single-node workload: steps are control intervals, not rounds
	variants int  // input draws a run cycles through
	repeats  int  // untraced passes of each variant folded into the figures
	run      func(seed int64, traced bool, spans *spanLog) (passResult, error)
}

// variantSeed derives the seed of one of a run's variants.
func variantSeed(seed int64, v int) int64 { return seed*64 + int64(v) }

// Pass sizes. Each pass is deterministic for its seed; a run repeats
// passes until its time is up.
var workloads = []workloadDef{
	{name: "node_slo", node: true, variants: 16, repeats: 4, run: func(seed int64, traced bool, spans *spanLog) (passResult, error) {
		return runNodePass(sloScenario(2), seed, traced, spans)
	}},
	{name: "fleet_64", variants: 2, repeats: 2, run: func(seed int64, traced bool, spans *spanLog) (passResult, error) {
		return runCoordPass(fleetScenario(64, 100), seed, traced, spans)
	}},
	{name: "tree_1024", variants: 2, repeats: 2, run: func(seed int64, traced bool, spans *spanLog) (passResult, error) {
		return runCoordPass(treeScenario(32, 32, 150), seed, traced, spans)
	}},
}

// passResult is what one pass yields.
type passResult struct {
	setup      time.Duration
	steps      []float64 // host µs of each measured interval or round
	stepCPU    []float64 // process CPU µs, all threads, of each of those steps
	cuts       []float64 // host µs from SetBudget(lower) until Σ caps fits it
	allocs     uint64    // heap objects allocated inside the measured calls (traced passes)
	allocBytes uint64
	peakLive   uint64
	gcCycles   int64
	gcPause    time.Duration
	wall       time.Duration // the measured phase, untimed work included
	simSeconds float64       // simulated time the measured phase covered (node workloads)
	attempted  int
	failed     int
	errors     []string // failed operations
	broken     []string // correctness checks that did not hold
	outcome    map[string]float64
	layers     map[string]float64
	variant    int
	traced     bool
}

func (r *passResult) failOp(format string, args ...any) {
	r.failed++
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}

func (r *passResult) breakCheck(format string, args ...any) {
	r.broken = append(r.broken, fmt.Sprintf(format, args...))
}

func (r *passResult) absorb(pm *phaseMeter) {
	r.allocs, r.allocBytes, r.peakLive = pm.allocs, pm.bytes, pm.peakLive
	r.gcCycles, r.gcPause, r.wall = pm.gcCycles, pm.gcPause, pm.wall
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// metric is one named figure of the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd names the gated metrics, present on every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"step_us_p50", "us"},
	{"peak_heap_mb", "MB"},
	{"cpu_us_per_step", "us"},
}

// perLayer names the traced run's metrics; a layer a workload does not
// load reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.step_us", "us"},
	{"sim.steps", "count"},
	{"svc.tick_us", "us"},
	{"svc.fill_us", "us"},
	{"svc.completed", "count"},
	{"svc.dropped", "count"},
	{"svc.timed_out", "count"},
	{"svc.window_rps", "1/s"},
	{"daemon.sample_us", "us"},
	{"daemon.decide_us", "us"},
	{"daemon.actuate_us", "us"},
	{"daemon.record_us", "us"},
	{"flight.events_per_interval", "count"},
	{"cluster.report_ms", "ms"},
	{"cluster.report_rpc_us", "us"},
	{"cluster.transport_us", "us"},
	{"cluster.plan_us", "us"},
	{"cluster.grant_ms", "ms"},
	{"cluster.grant_rounds_frac", "ratio"},
	{"cluster.rpc_failures", "count"},
	{"powerapi.status_handle_us", "us"},
	{"powerapi.status_bytes", "bytes"},
	{"powerapi.delta_frac", "ratio"},
	{"powerapi.decode_us", "us"},
	{"powerapi.encode_us", "us"},
	{"powerapi.grant_handle_us", "us"},
	{"powerapi.grant_bytes", "bytes"},
	{"hierarchy.rows_ms", "ms"},
	{"hierarchy.root_ms", "ms"},
	{"runtime.allocs", "count"},
	{"runtime.alloc_bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_us", "us"},
	{"error_frac", "ratio"},
	{"trace.overhead_us", "us"},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "node_slo, fleet_64 or tree_1024")
		seed    = flag.Int64("seed", 1, "workload seed: app shares, arrivals, leaf demand walk, budget schedule")
		seconds = flag.Int("seconds", 20, "how long to measure")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and spans")
		rev     = flag.String("rev", "none", "source revision, recorded with the result")
		out     = flag.String("out", ".bench_build/perfbench", "directory for the span log and the full report")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *rev, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// shape is the machine a result was measured on.
type shape struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Rev        string `json:"git_rev"`
}

// machineShape caps GOMAXPROCS at two unless the environment sets it,
// so results from machines of different sizes stay comparable, and
// refuses a GOMAXPROCS above the CPUs the process may run on.
func machineShape(rev string) (shape, error) {
	nproc := runtime.NumCPU()
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(min(nproc, 2))
	}
	s := shape{NumCPU: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Rev: rev}
	if s.GOMAXPROCS > nproc {
		return s, fmt.Errorf("GOMAXPROCS %d exceeds nproc %d; refusing to run", s.GOMAXPROCS, nproc)
	}
	return s, nil
}

func run(name string, seed int64, seconds int, traced bool, rev, out string) error {
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	sh, err := machineShape(rev)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	var spans *spanLog
	if traced {
		spans = newSpanLog()
	}
	// Each pass runs one of the workload's variants: the seed deals a
	// variant its own inputs (share assignment, arrival trace), so a run
	// covers several and its figures do not hang on one draw. A traced
	// run gives each variant an untraced and a traced pass in a row.
	minPasses := max(3, w.variants*w.repeats)
	if traced {
		minPasses = max(4, 2*w.variants*w.repeats)
	}
	began := time.Now()
	deadline := began.Add(time.Duration(seconds) * time.Second)
	var passes []passResult
	// Passes continue while the next one, judged by the mean so far, still
	// ends before the deadline, so a run lasts about --seconds.
	for i := 0; len(passes) < minPasses || time.Now().Add(time.Since(began)/time.Duration(len(passes))).Before(deadline); i++ {
		v, tp := i%w.variants, false
		if traced {
			v, tp = (i/2)%w.variants, i%2 == 1
		}
		var sl *spanLog
		if tp {
			sl = spans
		}
		res, err := w.run(variantSeed(seed, v), tp, sl)
		if err != nil {
			return fmt.Errorf("%s pass %d: %w", name, i+1, err)
		}
		res.variant, res.traced = v, tp
		passes = append(passes, res)
	}
	elapsed := time.Since(began)

	rep := summarize(w, passes)
	rep.Shape = sh
	rep.Workload, rep.Seed, rep.Traced, rep.Passes, rep.Seconds = name, seed, traced, len(passes), elapsed.Seconds()

	tag := fmt.Sprintf("%s-seed%d-trace0", name, seed)
	if traced {
		tag = fmt.Sprintf("%s-seed%d-trace1", name, seed)
	}
	if traced {
		if err := spans.write(filepath.Join(out, "spans-"+tag+".jsonl")); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "report-"+tag+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}

	printReport(rep)
	res := result{Correct: len(rep.Broken) == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	list := endToEnd
	src := rep.EndToEnd
	if traced {
		list, src = perLayer, rep.Layers
	}
	for _, m := range list {
		res.Metrics[m.name] = metric{Value: src[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// report is the full record of a run, written next to the span log.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Passes    int                `json:"passes"`
	Seconds   float64            `json:"seconds"`
	Shape     shape              `json:"machine"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Broken    []string           `json:"broken_checks,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Named     []namedMetric      `json:"workload_metrics"`
	Outcome   map[string]float64 `json:"simulated_outcome"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	Raw       map[string]float64 `json:"raw_untraced"` // every repeat's steps, not folded
	Samples   sampleCounts       `json:"samples"`
}

// namedMetric is one of the workload's own end-to-end figures, under
// the name the workload's layer map uses (interval_us_p50, cut_ms_p50…).
type namedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sampleCounts states how many samples the percentiles rest on and how
// many lie beyond the tail ones.
type sampleCounts struct {
	Steps       int `json:"steps"` // after folding each variant's repeats
	BeyondP95   int `json:"beyond_p95"`
	BeyondP99   int `json:"beyond_p99"`
	Variants    int `json:"variants"`
	Repeats     int `json:"untraced_passes"`
	Cuts        int `json:"cuts"`
	SetupPasses int `json:"setup_passes"`
}

// bestOf folds the first untraced repeats of one variant into one pass.
// A variant's passes do the same work step for step, and a busy host
// only ever adds time, so each step keeps the least time and CPU any
// repeat needed for it. On a shared machine this is what keeps neighbours' bursts,
// which come and go within a second, out of the figures. The number of
// repeats folded is fixed per workload, so the figures do not drift
// with how many passes a run happened to fit.
type bestOf struct {
	steps, cpu []float64
	repeats    int
}

func (b *bestOf) add(p *passResult, limit int) {
	if b.repeats == limit {
		return
	}
	if b.repeats == 0 {
		b.steps = append([]float64(nil), p.steps...)
		b.cpu = append([]float64(nil), p.stepCPU...)
		b.repeats = 1
		return
	}
	if len(p.steps) != len(b.steps) {
		return // a failed step broke the alignment; the failure is reported
	}
	for i := range p.steps {
		b.steps[i] = min(b.steps[i], p.steps[i])
		b.cpu[i] = min(b.cpu[i], p.stepCPU[i])
	}
	b.repeats++
}

func summarize(w *workloadDef, passes []passResult) report {
	rep := report{EndToEnd: map[string]float64{}, Outcome: map[string]float64{}}
	var (
		raw, tracedSteps, cuts, setups, peaks []float64
		allocs, allocBytes                    uint64
		gcCycles                              int64
		gcPause, wall                         time.Duration
		simSeconds                            float64
		layers                                = map[string][]float64{}
		first                                 = map[int]int{} // variant -> its first pass
		best                                  = make([]bestOf, w.variants)
	)
	for i := range passes {
		p := &passes[i]
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		rep.Errors = append(rep.Errors, p.errors...)
		rep.Broken = append(rep.Broken, p.broken...)
		if j, ok := first[p.variant]; !ok {
			first[p.variant] = i
			for k, v := range p.outcome {
				rep.Outcome[k] += v / float64(w.variants)
			}
		} else if diff := outcomeDiff(passes[j].outcome, p.outcome); diff != "" {
			rep.Broken = append(rep.Broken, fmt.Sprintf("pass %d (variant %d, traced %v) changed the simulated outcome of pass %d: %s",
				i+1, p.variant, p.traced, j+1, diff))
		}
		setups = append(setups, p.setup.Seconds())
		if p.traced {
			tracedSteps = append(tracedSteps, p.steps...)
			allocs += p.allocs
			allocBytes += p.allocBytes
			for k, v := range p.layers {
				layers[k] = append(layers[k], v)
			}
			continue
		}
		best[p.variant].add(p, w.repeats)
		raw = append(raw, p.steps...)
		wall += p.wall
		simSeconds += p.simSeconds
		cuts = append(cuts, p.cuts...)
		peaks = append(peaks, float64(p.peakLive)/(1<<20))
		gcCycles += p.gcCycles
		gcPause += p.gcPause
	}
	if len(rep.Errors) > 20 {
		rep.Errors = append(rep.Errors[:20], fmt.Sprintf("… %d more", len(rep.Errors)-20))
	}
	var steps, cpu []float64
	repeats := 0
	for _, b := range best {
		steps = append(steps, b.steps...)
		cpu = append(cpu, b.cpu...)
		repeats += b.repeats
	}
	n := float64(len(steps))
	// Only traced passes count allocations (see phaseMeter); NaN leaves
	// the figure out of an untraced run's report.
	perStep := math.NaN()
	if len(tracedSteps) > 0 {
		perStep = float64(allocs) / float64(len(tracedSteps))
	}
	e := rep.EndToEnd
	e["setup_s"] = median(setups)
	e["step_us_p50"] = median(steps)
	p95 := percentile(append([]float64(nil), steps...), 95)
	p99 := percentile(append([]float64(nil), steps...), 99)
	e["peak_heap_mb"] = median(peaks)
	e["cpu_us_per_step"] = mean(cpu)
	rep.Raw = map[string]float64{
		"step_us_p50": median(raw),
		"step_us_p95": percentile(append([]float64(nil), raw...), 95),
		"step_us_p99": percentile(append([]float64(nil), raw...), 99),
	}
	rep.Samples = sampleCounts{Steps: len(steps), BeyondP95: len(steps) - int(math.Ceil(0.95*n)),
		BeyondP99: len(steps) - int(math.Ceil(0.99*n)), Variants: w.variants, Repeats: repeats,
		Cuts: len(cuts), SetupPasses: len(setups)}

	errFrac := float64(rep.Failed) / float64(rep.Attempted)
	add := func(name string, v float64, unit string) {
		if !math.IsNaN(v) { // no samples, e.g. every cut failed
			rep.Named = append(rep.Named, namedMetric{Name: name, Value: v, Unit: unit})
		}
	}
	add("setup_s", e["setup_s"], "s")
	add("steps_per_s", float64(len(raw))/wall.Seconds(), "1/s")
	if w.node {
		add("interval_us_p50", e["step_us_p50"], "us")
		add("interval_us_p95", p95, "us")
		add("interval_us_p99", p99, "us")
		add("allocs_per_interval", perStep, "count")
		add("sim_x_realtime", simSeconds/wall.Seconds(), "sim_s/s")
		add("batch_gips", rep.Outcome["batch_gips"], "Ginstr/sim_s")
		if v, ok := rep.Outcome["slo_p99_ms"]; ok {
			add("slo_p99_ms", v, "ms")
			add("slo_miss_frac", rep.Outcome["slo_miss_frac"], "ratio")
		}
	} else {
		add("round_ms_p50", e["step_us_p50"]/1e3, "ms")
		add("round_ms_p95", p95/1e3, "ms")
		add("round_ms_p99", p99/1e3, "ms")
		add("cut_ms_p50", median(cuts)/1e3, "ms")
		add("allocs_per_round", perStep, "count")
		add("budget_used_frac", rep.Outcome["budget_used_frac"], "ratio")
	}
	add("peak_heap_mb", e["peak_heap_mb"], "MB")
	add("error_frac", errFrac, "ratio")

	if len(tracedSteps) > 0 {
		rep.Layers = map[string]float64{}
		for _, m := range perLayer {
			if vs := layers[m.name]; len(vs) > 0 {
				rep.Layers[m.name] = median(vs)
			} else {
				rep.Layers[m.name] = 0
			}
		}
		rep.Layers["runtime.allocs"] = perStep
		rep.Layers["runtime.alloc_bytes"] = float64(allocBytes) / float64(len(tracedSteps))
		rep.Layers["runtime.gc_cycles"] = float64(gcCycles) * 1000 / float64(len(raw))
		rep.Layers["runtime.gc_pause_us"] = micros(gcPause) * 1000 / float64(len(raw))
		rep.Layers["error_frac"] = errFrac
		rep.Layers["trace.overhead_us"] = median(tracedSteps) - e["step_us_p50"]
	}
	return rep
}

// outcomeDiff reports the first simulated outcome two passes disagree
// on, bit for bit, or "".
func outcomeDiff(a, b map[string]float64) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(a) != len(b) {
		return fmt.Sprintf("%d outcomes vs %d", len(a), len(b))
	}
	for _, k := range keys {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return fmt.Sprintf("%s %v vs %v", k, a[k], b[k])
		}
	}
	return ""
}

func printReport(rep report) {
	fmt.Printf("perfbench: workload %s, seed %d, traced %v: %d passes in %.1f s\n",
		rep.Workload, rep.Seed, rep.Traced, rep.Passes, rep.Seconds)
	sh := rep.Shape
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d %s %s/%s rev=%s\n", sh.NumCPU, sh.GOMAXPROCS, sh.GoVersion, sh.GOOS, sh.GOARCH, sh.Rev)
	fmt.Printf("samples: %d steps (%d beyond p95, %d beyond p99) folded from %d untraced passes over %d variants, %d cuts, %d set-ups\n",
		rep.Samples.Steps, rep.Samples.BeyondP95, rep.Samples.BeyondP99, rep.Samples.Repeats, rep.Samples.Variants,
		rep.Samples.Cuts, rep.Samples.SetupPasses)
	fmt.Printf("raw, every repeat: step_us p50 %.6g, p95 %.6g, p99 %.6g\n",
		rep.Raw["step_us_p50"], rep.Raw["step_us_p95"], rep.Raw["step_us_p99"])
	for _, m := range rep.Named {
		fmt.Printf("  %-22s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if rep.Layers != nil {
		fmt.Println("per layer (traced passes):")
		for _, m := range perLayer {
			fmt.Printf("  %-28s %14.6g %s\n", m.name, rep.Layers[m.name], m.unit)
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	for _, b := range rep.Broken {
		fmt.Println("check FAILED:", b)
		fmt.Fprintln(os.Stderr, "perfbench: check FAILED:", b)
	}
	if len(rep.Broken) == 0 {
		fmt.Println("checks: ledger conservation, Σ caps ≤ budget, svc accounting, deterministic outcomes: all held")
	} else {
		fmt.Printf("checks: %d FAILED\n", len(rep.Broken))
	}
}
