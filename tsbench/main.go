// Command tsbench is the end-to-end benchmark of the tierscape simulator.
// It drives three workloads from outside the program through their public
// entry points, times them, checks their outputs and prints one JSON result
// line (the contract in BENCHMARK.json):
//
//	tsbench --workload fig7-small --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// twice, untraced then traced, and reports the per-layer metrics and the
// tracing overhead. --summary runs the benchmark repeatedly (one child
// process per run) and prints each metric's median, quartiles and spread
// against its bound. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"
)

// setupReps is how many times each run builds its workload; setup_s is the
// median, so one slow build (a noisy neighbour) does not move it.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchFile() (*benchFile, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json (run from the repository root): %w", err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// checker counts output checks; every failure is also logged to stderr.
type checker struct {
	attempted, failed int64
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "CHECK FAILED: "+format+"\n", args...)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wlName  = flag.String("workload", "", "workload to run: "+workloadNames()+" (or all, with --summary)")
		seed    = flag.Uint64("seed", 0, "input seed (0 = the default seed in golden.json)")
		seconds = flag.Float64("seconds", 0, "seconds to measure (0 = run_seconds from BENCHMARK.json)")
		traced  = flag.Int("trace", 0, "1 = report per-layer metrics from an untraced and a traced run")
		out     = flag.String("out", ".bench_build", "directory for span files")
		summary = flag.Bool("summary", false, "run the benchmark --runs times per workload and print medians and spreads")
		runs    = flag.Int("runs", 10, "runs per workload for --summary (seeds default+0 .. default+runs-1)")
	)
	flag.Parse()
	bf, err := loadBenchFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		return 2
	}
	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		return 2
	}
	if *seed == 0 {
		*seed = gold.DefaultSeed
	}
	if *seconds <= 0 {
		*seconds = float64(bf.RunSeconds)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "tsbench: --trace must be 0 or 1")
		return 2
	}
	if *summary {
		return runSummary(bf, *wlName, *seed, *runs, *seconds, *traced == 1)
	}
	sp, ok := specByName(*wlName)
	if !ok {
		fmt.Fprintf(os.Stderr, "tsbench: unknown workload %q (want %s)\n", *wlName, workloadNames())
		return 2
	}

	var c checker
	var r *report
	if *traced == 1 {
		r, err = runTraced(sp, *seed, *seconds, &c, gold, *out)
	} else {
		r, err = runUntraced(sp, *seed, *seconds, &c, gold)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		return 1
	}
	want := bf.EndToEnd
	if *traced == 1 {
		want = bf.PerLayer
	}
	if err := matchDeclared(r.metrics, want); err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		return 1
	}
	r.print(os.Stdout, sp.name, *seed, want)
	res := result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: r.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if c.failed > 0 {
		return 1
	}
	return 0
}

// matchDeclared insists the run produced exactly the metrics BENCHMARK.json
// declares, with the declared units, so the two never drift apart.
func matchDeclared(m map[string]metric, want []metricSpec) error {
	if len(m) != len(want) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		return fmt.Errorf("produced %d metrics %v, BENCHMARK.json declares %d", len(m), names, len(want))
	}
	for _, w := range want {
		got, ok := m[w.Name]
		if !ok {
			return fmt.Errorf("metric %q declared in BENCHMARK.json was not produced", w.Name)
		}
		if got.Unit != w.Unit {
			return fmt.Errorf("metric %q has unit %q, BENCHMARK.json declares %q", w.Name, got.Unit, w.Unit)
		}
	}
	return nil
}

// row is one line of the human-readable table.
type row struct {
	name, unit, kind string // kind is host (wall clock, memory) or sim (modeled)
	samples          int
	value            float64
}

// report is one run's metrics and the table rows shown beside them.
type report struct {
	metrics map[string]metric
	rows    map[string]row
	extra   []row // printed after the metrics, not part of the JSON result
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, rows: map[string]row{}}
}

func (r *report) add(name, unit, kind string, samples int, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.rows[name] = row{name: name, unit: unit, kind: kind, samples: samples, value: v}
}

// print writes every metric in BENCHMARK.json's order with its unit,
// sample count and kind, then the extra rows.
func (r *report) print(f *os.File, wl string, seed uint64, order []metricSpec) {
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s seed=%d\n", wl, seed)
	fmt.Fprintf(w, "%-40s %16s  %-8s %8s  %s\n", "metric", "value", "unit", "samples", "kind")
	rows := make([]row, 0, len(order)+len(r.extra))
	for _, s := range order {
		rows = append(rows, r.rows[s.Name])
	}
	for _, x := range append(rows, r.extra...) {
		fmt.Fprintf(w, "%-40s %16.6g  %-8s %8d  %s\n", x.name, x.value, x.unit, x.samples, x.kind)
	}
	w.Flush()
}

// timing holds what one timed loop measured.
type timing struct {
	units      []float64 // seconds per timed unit (tick, window or Fig7 call)
	allocPerOp float64   // heap bytes allocated per simulated op over the first minUnits units
	blocks     []float64 // seconds per block of spec.blockUnits units
	blockRates []float64 // simulated ops per second, per block
	ops        int64     // simulated application ops
	peakHeap   uint64    // peak live heap over the first minUnits units
	growth     float64   // live-heap growth per unit, bytes (traced runs)
	gcCycles   uint64
	gcCPU      float64 // GC CPU seconds
	totalCPU   float64 // all CPU seconds of the process
}

// runtime/metrics samples read around the timed loop.
var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

type rtState struct {
	live, cycles, allocs uint64
	gcCPU, cpu           float64
}

func readRuntime() rtState {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return rtState{
		live:   s[0].Value.Uint64(),
		cycles: s[1].Value.Uint64(),
		gcCPU:  s[2].Value.Float64(),
		cpu:    s[3].Value.Float64(),
		allocs: s[4].Value.Uint64(),
	}
}

// heapSampler polls the live heap (as marked by the most recent GC) so the
// peak during a long unit, such as a Fig7 call, is seen.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				h.observe(s[0].Value.Uint64())
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

func (h *heapSampler) max() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// timedLoop runs units until both seconds have passed and minUnits units
// have run. At unit minUnits it forces a GC (outside the timed wall) and
// reads the peak heap and the allocation, so they cover a fixed amount of
// work whatever the host's speed: the daemon's retained op latencies grow
// with every tick, and slice doubling makes allocation depend on where the
// run stops.
func timedLoop(b bench, sp spec, seconds float64, minUnits int) (*timing, error) {
	runtime.GC()
	rt0 := readRuntime()
	hs := startHeapSampler()
	defer hs.close()

	t := &timing{}
	var paused time.Duration
	var blockOps int64
	start := time.Now()
	blockStart := start
	for n := 0; n < minUnits || time.Since(start)-paused < time.Duration(seconds*float64(time.Second)); {
		t0 := time.Now()
		ops, err := b.step()
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s unit %d: %w", sp.name, n, err)
		}
		n++
		t.units = append(t.units, d.Seconds())
		t.ops += ops
		blockOps += ops
		if n%sp.blockUnits == 0 {
			bs := time.Since(blockStart).Seconds()
			t.blocks = append(t.blocks, bs)
			t.blockRates = append(t.blockRates, float64(blockOps)/bs)
			blockStart, blockOps = time.Now(), 0
		}
		if n == minUnits {
			g0 := time.Now()
			runtime.GC()
			rt := readRuntime()
			hs.observe(rt.live)
			t.peakHeap = hs.max()
			t.allocPerOp = float64(rt.allocs-rt0.allocs) / float64(t.ops)
			paused += time.Since(g0)
			blockStart = blockStart.Add(time.Since(g0))
		}
	}
	return t, nil
}

// setupAll builds the workload reps times, timing each build, and returns
// the last build (the others are closed).
func setupAll(sp spec, seed uint64, reps int, tr *tracer, c *checker) (bench, []float64, error) {
	var times []float64
	var prefix string
	for i := 0; ; i++ {
		b := sp.newBench()
		t0 := time.Now()
		err := b.setup(seed, tr)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			b.close()
			return nil, nil, fmt.Errorf("%s setup: %w", sp.name, err)
		}
		// Every build with the same seed must produce the same warm-up
		// output: a seed-independent determinism check.
		p := b.warmDigest()
		if i == 0 {
			prefix = p
		} else {
			c.check(p == prefix, "%s: warm-up output of build %d differs from build 0", sp.name, i)
		}
		if i == reps-1 {
			return b, times, nil
		}
		b.close()
	}
}

func runUntraced(sp spec, seed uint64, seconds float64, c *checker, gold *golden) (*report, error) {
	b, setups, err := setupAll(sp, seed, setupReps, nil, c)
	if err != nil {
		return nil, err
	}
	defer b.close()
	t, err := timedLoop(b, sp, seconds, sp.minUnits)
	if err != nil {
		return nil, err
	}
	mod, err := b.finish(c, gold)
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.add("setup_s", "s", "host", len(setups), median(setups))
	r.add("wall_s", "s", "host", len(t.blocks), median(t.blocks))
	r.add("unit_p50_ms", "ms", "host", len(t.units), 1000*percentile(t.units, 50))
	r.add("sim_ops_per_s", "ops/s", "host", len(t.blockRates), median(t.blockRates))
	r.add("peak_heap_mb", "MB", "host", 1, float64(t.peakHeap)/(1<<20))
	r.add("alloc_bytes_per_op", "B", "host", sp.minUnits, t.allocPerOp)
	// Tails are reported but not gated: a Fig7 run has too few calls for
	// any percentile above the median to have ten samples beyond it, and on
	// a shared host the tails spread between runs nearly as much as the
	// largest bound BENCHMARK.json may set.
	r.extra = append(r.extra,
		row{"(ungated) unit_p90_ms", "ms", "host", len(t.units), 1000 * percentile(t.units, 90)},
		row{"(ungated) unit_p99_ms", "ms", "host", len(t.units), 1000 * percentile(t.units, 99)},
		row{"(ungated) unit_max_ms", "ms", "host", len(t.units), 1000 * percentile(t.units, 100)})
	r.add("tco_savings_pct", "%", "sim", mod.samples, mod.savingsPct)
	r.add("sim_app_s", "sim-s", "sim", mod.samples, mod.appS)
	return r, nil
}

// runTraced builds the workload twice, untraced and traced, and runs
// blocks of units of the two alternately, so drift on the host (a noisy
// neighbour, a growing heap) hits both sides alike. The CPU profile runs
// only during traced blocks. The tracing overhead is the traced median
// unit time minus the untraced one.
func runTraced(sp spec, seed uint64, seconds float64, c *checker, gold *golden, out string) (*report, error) {
	ref, _, err := setupAll(sp, seed, 1, nil, c)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	tr := newTracer(sp.name)
	b, _, err := setupAll(sp, seed, 1, tr, c)
	if err != nil {
		return nil, err
	}
	defer b.close()
	// Tracing must never change the program's output.
	c.check(b.warmDigest() == ref.warmDigest(), "%s: traced warm-up output differs from untraced", sp.name)

	runtime.GC()
	rt0 := readRuntime()
	tr.begin(b)
	t := &timing{}
	var refUnits []float64
	counts := map[string]int64{}
	start := time.Now()
	for len(t.units) < sp.digestUnits || time.Since(start).Seconds() < seconds {
		for i := 0; i < sp.blockUnits; i++ {
			t0 := time.Now()
			if _, err := ref.step(); err != nil {
				return nil, fmt.Errorf("%s untraced unit: %w", sp.name, err)
			}
			refUnits = append(refUnits, time.Since(t0).Seconds())
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		for i := 0; i < sp.blockUnits; i++ {
			tr.unitStart()
			t0 := time.Now()
			ops, err := b.step()
			d := time.Since(t0)
			tr.unitEnd()
			if err != nil {
				pprof.StopCPUProfile()
				return nil, fmt.Errorf("%s traced unit: %w", sp.name, err)
			}
			t.units = append(t.units, d.Seconds())
			t.ops += ops
		}
		pprof.StopCPUProfile()
		if err := cpuCounts(prof.Bytes(), counts); err != nil {
			return nil, fmt.Errorf("reading CPU profile: %w", err)
		}
	}
	tr.end(b)
	runtime.GC()
	rt1 := readRuntime()
	t.gcCycles = rt1.cycles - rt0.cycles
	t.gcCPU, t.totalCPU = rt1.gcCPU-rt0.gcCPU, rt1.cpu-rt0.cpu
	t.growth = (float64(rt1.live) - float64(rt0.live)) / float64(len(t.units)+len(refUnits))
	for _, x := range []bench{ref, b} {
		if _, err := x.finish(c, gold); err != nil {
			return nil, err
		}
	}

	r := tr.report(t, shares(counts))
	refP50, p50 := median(refUnits), median(t.units)
	r.add("trace.untraced_unit_p50_ms", "ms", "host", len(refUnits), 1000*refP50)
	r.add("trace.traced_unit_p50_ms", "ms", "host", len(t.units), 1000*p50)
	r.add("trace.overhead_s", "s", "host", len(t.units), p50-refP50)
	r.add("trace.overhead_frac", "ratio", "host", len(t.units), (p50-refP50)/refP50)
	frac := 0.0
	if c.attempted > 0 {
		frac = float64(c.failed) / float64(c.attempted)
	}
	r.add("check.failed_frac", "ratio", "host", int(c.attempted), frac)
	path := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.json", sp.name, seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "tsbench: %d spans written to %s\n", len(tr.spans), path)
	return r, nil
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank percentile (p in [0,100]); the median of
// an even count is the mean of the two middle values.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 50 {
		n := len(s)
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	}
	rank := int(math.Ceil(float64(len(s))*p/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// default exclusive method), the spread rule BENCHMARK.json's bounds are
// checked with.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// runSummary runs the benchmark runs times per workload, each in its own
// child process with seeds seed, seed+1, ..., and prints per metric the
// median, quartiles and quartile spread as a share of the median against
// the metric's bound.
func runSummary(bf *benchFile, wl string, seed uint64, runs int, seconds float64, traced bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		return 1
	}
	var names []string
	for _, w := range bf.Workloads {
		if wl == "all" || wl == "" || wl == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "tsbench: unknown workload %q\n", wl)
		return 2
	}
	specs := bf.EndToEnd
	trace := "0"
	if traced {
		specs, trace = bf.PerLayer, "1"
	}
	status := 0
	for _, name := range names {
		vals := map[string][]float64{}
		failed := 0
		for i := 0; i < runs; i++ {
			s := seed + uint64(i)
			cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", trace)
			cmd.Stderr = os.Stderr
			outb, err := cmd.Output()
			res, perr := lastResult(outb)
			if err != nil || perr != nil || !res.Correct {
				failed++
				status = 1
				fmt.Fprintf(os.Stderr, "tsbench: %s seed %d: run error %v, parse error %v\n", name, s, err, perr)
				if res == nil {
					continue
				}
			}
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "tsbench: %s seed %d done\n", name, s)
		}
		fmt.Printf("## %s: %d runs, %d failed\n", name, runs, failed)
		fmt.Printf("%-36s %6s %14s %14s %14s %9s %7s %7s\n", "metric", "n", "median", "q1", "q3", "spread", "bound", "s/b")
		for _, sp := range specs {
			v := vals[sp.Name]
			if len(v) == 0 {
				continue
			}
			med := median(v)
			q1, q3 := quartiles(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			ratio := ""
			if sp.Bound > 0 {
				ratio = strconv.FormatFloat(spread/sp.Bound, 'f', 2, 64)
			}
			fmt.Printf("%-36s %6d %14.6g %14.6g %14.6g %9.4f %7.3g %7s\n", sp.Name, len(v), med, q1, q3, spread, sp.Bound, ratio)
		}
	}
	return status
}

// lastResult parses the JSON result from the last non-empty output line.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		return nil, errors.New("no output")
	}
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, err
	}
	return &r, nil
}
