package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tierscape/internal/corpus"
	"tierscape/internal/daemon"
	"tierscape/internal/experiments"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/sim"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// bench runs one workload. The benchmark's timed unit is step: one
// daemon tick, one Stepper window or one Fig7 call.
type bench interface {
	// setup builds the workload and runs its warm-up. tr is nil when
	// untraced; otherwise setup installs tr's wrappers around the
	// interfaces it hands to the program.
	setup(seed uint64, tr *tracer) error
	// warmDigest is a digest of the deterministic output produced during
	// setup; builds with the same seed must agree.
	warmDigest() string
	// step runs one timed unit and returns the simulated ops it ran.
	step() (int64, error)
	// finish checks the outputs of everything stepped so far and returns
	// the modeled outcome over the first digestUnits timed units.
	finish(c *checker, gold *golden) (modeled, error)
	// managers returns the tiered memory managers the workload drives
	// (nil when the program builds them internally).
	managers() []*mem.Manager
	close()
}

// modeled is the simulated outcome: TCO savings versus all-DRAM and
// modeled application time.
type modeled struct {
	savingsPct, appS float64
	samples          int
}

type spec struct {
	name     string
	newBench func() bench
	// minUnits is the least number of timed units of a --trace 0 run, so
	// the reported percentile has enough samples beyond it; heap figures
	// cover exactly these units.
	minUnits int
	// digestUnits is how many timed units the output digest and the
	// modeled metrics cover: a fixed amount of work, whatever the host's
	// speed.
	digestUnits int
	// blockUnits is the unit count of one wall_s block.
	blockUnits int
}

var specs = []spec{
	{name: "fig7-small", newBench: func() bench { return &fig7Bench{} }, minUnits: 3, digestUnits: 1, blockUnits: 1},
	{name: "daemon-kv", newBench: func() bench { return &daemonBench{} }, minUnits: 1000, digestUnits: 200, blockUnits: 100},
	{name: "masim-churn", newBench: func() bench { return &masimBench{} }, minUnits: 200, digestUnits: 100, blockUnits: 10},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func workloadNames() string {
	var n []string
	for _, s := range specs {
		n = append(n, s.name)
	}
	return strings.Join(n, ", ")
}

// golden holds the seeds and the output digests recorded at the default
// seed (golden.json next to this file).
type golden struct {
	DefaultSeed uint64            `json:"default_seed"`
	HeldOutSeed uint64            `json:"held_out_seed"`
	Digests     map[string]string `json:"digests"`
}

func loadGolden() (*golden, error) {
	b, err := os.ReadFile("tsbench/golden.json")
	if err != nil {
		return nil, fmt.Errorf("reading tsbench/golden.json: %w", err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("parsing tsbench/golden.json: %w", err)
	}
	if g.DefaultSeed == 0 {
		return nil, errors.New("tsbench/golden.json: default_seed must be set")
	}
	return &g, nil
}

// checkDigest compares a digest against golden.json when the run uses the
// default seed. Digests for other seeds are printed only.
func checkDigest(c *checker, gold *golden, seed uint64, key, got string) {
	fmt.Fprintf(os.Stderr, "tsbench: digest %s seed %d = %s\n", key, seed, got)
	if seed != gold.DefaultSeed {
		return
	}
	want, ok := gold.Digests[key]
	c.check(ok && want == got, "digest %s at default seed: got %s, golden.json has %q", key, got, want)
}

// checkWindows checks the accounting invariant of every window: the
// per-tier page counts sum to the manager's page count.
func checkWindows(c *checker, name string, res *sim.Result, numPages int64) {
	for _, w := range res.Windows {
		var sum int64
		for _, p := range w.TierPages {
			sum += p
		}
		c.check(sum == numPages, "%s window %d: tier pages sum to %d, want %d", name, w.Window, sum, numPages)
	}
}

// savingsOver recomputes Result.SavingsPct and the modeled application
// time over the first n windows, in the Stepper's own accumulation order.
func savingsOver(res *sim.Result, n int) (savingsPct, appNs float64) {
	var weighted float64
	for _, w := range res.Windows[:n] {
		weighted += w.TCO * w.AppNs
		appNs += w.AppNs
	}
	if appNs == 0 || res.TCOMax == 0 {
		return 0, appNs
	}
	return (res.TCOMax - weighted/appNs) / res.TCOMax * 100, appNs
}

// checkSavings cross-checks the recomputation over all windows against
// the program's own Result.SavingsPct.
func checkSavings(c *checker, name string, res *sim.Result) {
	got, _ := savingsOver(res, len(res.Windows))
	want := res.SavingsPct()
	c.check(math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want)),
		"%s: savings recomputed from windows %.12g != Result.SavingsPct %.12g", name, got, want)
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// streamDigest hashes a run's obs.Stream JSONL (windows and moves) up to a
// fixed window, and records the digest of the warm-up prefix on the way.
type streamDigest struct {
	h        hash.Hash
	s        *obs.Stream
	prefixAt int // windows in the warm-up prefix
	upto     int // last window hashed
	prefix   string
}

func newStreamDigest(prefixAt, upto int) *streamDigest {
	h := sha256.New()
	return &streamDigest{h: h, s: obs.NewStream(h), prefixAt: prefixAt, upto: upto}
}

func (d *streamDigest) RecordWindow(w obs.WindowSnapshot) {
	if w.Window > d.upto {
		return
	}
	d.s.RecordWindow(w)
	if w.Window == d.prefixAt {
		d.prefix = hexSum(d.h)
	}
}

func (d *streamDigest) RecordMove(m obs.MoveEvent) {
	if m.Window <= d.upto {
		d.s.RecordMove(m)
	}
}

func (d *streamDigest) RecordRuntime(obs.WindowRuntime) {}

// ---- fig7-small ----------------------------------------------------------

// fig7Bench regenerates Figure 7 at small scale: the path a researcher
// regenerating the figures waits on. Workload construction and demotion
// compression dominate it.
type fig7Bench struct {
	scale   experiments.Scale
	seed    uint64
	tr      *tracer
	first   string // table digest of the first call
	calls   int
	savings float64
	appS    float64
	rows    int
}

// fig7Models is the model count of Figure 7's lineup (HeMem*, GSwap*, TMO*,
// Waterfall, AM-TCO, AM-perf): the table has one row per workload × model.
const fig7Models = 6

func (f *fig7Bench) setup(seed uint64, tr *tracer) error {
	f.seed, f.tr = seed, tr
	f.scale = experiments.SmallScale()
	f.scale.Seed = seed
	experiments.SetParallelism(runtime.NumCPU())
	experiments.SetPushThreads(1)
	// Warm-up: build each Table 2 workload once at this scale, the input
	// construction every Fig7 job repeats.
	t0 := time.Now()
	for _, ws := range experiments.Workloads() {
		if wl := ws.New(f.scale); wl.NumPages() <= 0 {
			return fmt.Errorf("workload %s has no pages", ws.Name)
		}
	}
	if tr != nil {
		tr.buildNs.Add(int64(time.Since(t0)))
	}
	return nil
}

func (f *fig7Bench) warmDigest() string { return "" }

func (f *fig7Bench) step() (int64, error) {
	live := obs.NewLive()
	experiments.SetLive(live)
	tab, err := experiments.Fig7(f.scale)
	experiments.SetLive(nil)
	if err != nil {
		return 0, err
	}
	sum := sha256.Sum256([]byte(tab.String()))
	d := hex.EncodeToString(sum[:])
	if f.calls == 0 {
		f.first = d
		f.savings, f.rows = fig7Savings(tab), len(tab.Rows)
	} else if d != f.first {
		return 0, fmt.Errorf("Fig7 call %d printed a different table than call 0", f.calls)
	}
	f.calls++
	vars := live.Vars().(map[string]any)
	appNs, _ := vars["app_ns"].(float64)
	windows, _ := vars["windows"].(int64)
	if f.calls == 1 {
		f.appS = appNs / 1e9
	}
	if f.tr != nil {
		f.tr.addLive(vars, int64(f.scale.Windows))
		f.tr.addFig7Faults(tab)
	}
	return windows * int64(f.scale.OpsPerWindow), nil
}

// column returns the cells of tab's column called name (nil if absent).
func column(tab *experiments.Table, name string) []string {
	for i, h := range tab.Headers {
		if h != name {
			continue
		}
		var cells []string
		for _, r := range tab.Rows {
			if i < len(r) {
				cells = append(cells, r[i])
			}
		}
		return cells
	}
	return nil
}

// fig7Savings returns the mean tco_savings_pct over the table's rows, or 0
// if the column is missing or holds a non-number.
func fig7Savings(tab *experiments.Table) float64 {
	cells := column(tab, "tco_savings_pct")
	if len(cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cells {
		v, err := strconv.ParseFloat(c, 64)
		if err != nil {
			return 0
		}
		sum += v
	}
	return sum / float64(len(cells))
}

func (f *fig7Bench) finish(c *checker, gold *golden) (modeled, error) {
	want := len(experiments.Workloads()) * fig7Models
	c.check(f.calls > 0, "fig7-small: no Fig7 call completed")
	c.check(f.rows == want, "fig7-small: table has %d rows, want %d", f.rows, want)
	c.check(f.savings > 0, "fig7-small: mean TCO savings %.4g%% is not positive", f.savings)
	checkDigest(c, gold, f.seed, "fig7-small/table", f.first)
	return modeled{savingsPct: f.savings, appS: f.appS, samples: f.rows}, nil
}

func (f *fig7Bench) managers() []*mem.Manager { return nil }
func (f *fig7Bench) close()                   { experiments.SetLive(nil) }

// ---- daemon-kv -----------------------------------------------------------

// daemonWarmTicks is the daemon-kv warm-up, part of setup_s.
const daemonWarmTicks = 20

// daemonTenant is one workload attached to the resident daemon.
type daemonTenant struct {
	name   string
	alpha  float64
	model  string
	build  func(seed uint64) workload.Workload
	mgr    *mem.Manager
	digest *streamDigest
}

// daemonBench drives internal/daemon on a FakeClock with an obs.Live
// recorder attached, as `tierscape -daemon` runs: the resident serving
// path. Op generation, mem.Access and per-op stats dominate it.
type daemonBench struct {
	seed    uint64
	clk     *daemon.FakeClock
	d       *daemon.Daemon
	live    *obs.Live
	tenants []*daemonTenant
	ticks   int
	results []*sim.Result
}

func (b *daemonBench) setup(seed uint64, tr *tracer) error {
	b.seed = seed
	b.clk = daemon.NewFakeClock()
	b.live = obs.NewLive()
	d, err := daemon.New(daemon.Config{TickEvery: time.Second, MaxWorkloads: 8}, b.clk, b.live)
	if err != nil {
		return err
	}
	b.d = d
	const pages = 16 * mem.RegionPages
	b.tenants = []*daemonTenant{
		{name: "memcached-ycsb", alpha: 0.3, model: "AM-TCO", build: func(s uint64) workload.Workload {
			return workload.Memcached(workload.DriverYCSB, 1024, pages, s)
		}},
		{name: "redis-ycsb", alpha: 0.7, model: "AM-perf", build: func(s uint64) workload.Workload {
			return workload.Redis(pages, s+1)
		}},
	}
	digestAt := daemonWarmTicks + specs[1].digestUnits
	for _, tn := range b.tenants {
		t0 := time.Now()
		var wl workload.Workload = tn.build(seed)
		var src corpus.Source = corpus.NewGenerator(wl.Content(), seed)
		var mdl model.Model = &model.Analytical{Alpha: tn.alpha, ModelName: tn.model}
		tn.digest = newStreamDigest(daemonWarmTicks, digestAt)
		rec := obs.Tee(b.live, tn.digest)
		if tr != nil {
			tr.buildNs.Add(int64(time.Since(t0)))
			wl, src, mdl = tr.wrapWorkload(wl), tr.wrapSource(src), tr.wrapModel(mdl)
			rec = tr.wrapRecorder(rec)
		}
		m, err := mem.NewManager(mem.Config{
			NumPages:        wl.NumPages(),
			Content:         src,
			ByteTiers:       []media.Kind{media.NVMM},
			CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
		})
		if err != nil {
			return err
		}
		tn.mgr = m
		err = b.d.Attach(tn.name, sim.Config{
			Manager:      m,
			Workload:     wl,
			Model:        mdl,
			OpsPerWindow: 20000,
			SampleRate:   sim.Int(50),
			PushThreads:  sim.Int(2),
			Recorder:     rec,
		})
		if err != nil {
			return fmt.Errorf("attaching %s: %w", tn.name, err)
		}
	}
	for i := 0; i < daemonWarmTicks; i++ {
		if _, err := b.step(); err != nil {
			return err
		}
	}
	return nil
}

func (b *daemonBench) warmDigest() string {
	var s strings.Builder
	for _, tn := range b.tenants {
		s.WriteString(tn.digest.prefix)
	}
	return s.String()
}

// step is one closed-loop tick: deliver it, then wait until its windows
// have fully run.
func (b *daemonBench) step() (int64, error) {
	if !b.clk.Step() {
		return 0, daemon.ErrStopped
	}
	if err := b.d.Barrier(); err != nil {
		return 0, err
	}
	b.ticks++
	return int64(len(b.tenants)) * 20000, nil
}

func (b *daemonBench) detach() error {
	if b.results != nil {
		return nil
	}
	for _, tn := range b.tenants {
		res, err := b.d.Detach(tn.name)
		if err != nil {
			return fmt.Errorf("detaching %s: %w", tn.name, err)
		}
		b.results = append(b.results, res)
	}
	return nil
}

func (b *daemonBench) finish(c *checker, gold *golden) (modeled, error) {
	if err := b.detach(); err != nil {
		return modeled{}, err
	}
	n := daemonWarmTicks + specs[1].digestUnits
	var mod modeled
	for i, tn := range b.tenants {
		res := b.results[i]
		c.check(len(res.Windows) == b.ticks, "daemon-kv %s: %d windows after %d ticks", tn.name, len(res.Windows), b.ticks)
		checkWindows(c, "daemon-kv "+tn.name, res, tn.mgr.NumPages())
		checkSavings(c, "daemon-kv "+tn.name, res)
		if len(res.Windows) < n {
			return modeled{}, fmt.Errorf("daemon-kv %s ran %d windows, digest needs %d", tn.name, len(res.Windows), n)
		}
		sv, app := savingsOver(res, n)
		mod.savingsPct += sv / float64(len(b.tenants))
		mod.appS += app / 1e9
		mod.samples += n
		checkDigest(c, gold, b.seed, "daemon-kv/"+tn.name, hexSum(tn.digest.h))
	}
	return mod, nil
}

func (b *daemonBench) managers() []*mem.Manager {
	var ms []*mem.Manager
	for _, tn := range b.tenants {
		ms = append(ms, tn.mgr)
	}
	return ms
}

// oplatLen is the total op-latency samples the tenants' results retain.
func (b *daemonBench) oplatLen() int64 {
	if err := b.detach(); err != nil {
		return 0
	}
	var n int64
	for _, r := range b.results {
		n += int64(r.OpLat.Count())
	}
	return n
}

func (b *daemonBench) close() {
	if b.d != nil {
		b.d.Stop()
	}
}

// ---- masim-churn ---------------------------------------------------------

// masimWarmWindows is one full hot/warm/cold rotation (three phases of
// two windows), part of setup_s.
const masimWarmWindows = 6

// masimBench runs the artifact's masim scenario on the five compressed
// tiers of the spectrum under AM-TCO through sim.Stepper with the Recorder
// off. Every phase flip demotes and promotes pages across the codecs, so
// apply prepare (page content generation and compression) dominates.
type masimBench struct {
	seed uint64
	st   *sim.Stepper
	mgr  *mem.Manager
	warm string
}

func (b *masimBench) setup(seed uint64, tr *tracer) error {
	b.seed = seed
	const opsPerWindow = 10000
	t0 := time.Now()
	var wl workload.Workload = workload.DefaultMasim(3*mem.RegionPages, 2*opsPerWindow, seed)
	var src corpus.Source = corpus.NewGenerator(wl.Content(), seed)
	var mdl model.Model = &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"}
	var rec obs.Recorder
	if tr != nil {
		tr.buildNs.Add(int64(time.Since(t0)))
		wl, src, mdl = tr.wrapWorkload(wl), tr.wrapSource(src), tr.wrapModel(mdl)
		rec = tr.wrapRecorder(nil)
	}
	m, err := mem.NewManager(mem.Config{
		NumPages:        wl.NumPages(),
		Content:         src,
		CompressedTiers: ztier.SpectrumSet(),
	})
	if err != nil {
		return err
	}
	b.mgr = m
	b.st, err = sim.NewStepper(sim.Config{
		Manager:      m,
		Workload:     wl,
		Model:        mdl,
		OpsPerWindow: opsPerWindow,
		SampleRate:   sim.Int(50),
		PushThreads:  sim.Int(2),
		Recorder:     rec,
	})
	if err != nil {
		return err
	}
	for i := 0; i < masimWarmWindows; i++ {
		if err := b.st.Step(); err != nil {
			return err
		}
	}
	b.warm = windowsDigest(b.st.Result(), masimWarmWindows)
	return nil
}

// windowsDigest hashes the obs.Stream JSONL of the first n windows.
func windowsDigest(res *sim.Result, n int) string {
	h := sha256.New()
	s := obs.NewStream(h)
	for _, w := range res.Windows[:n] {
		s.RecordWindow(w)
	}
	return hexSum(h)
}

func (b *masimBench) warmDigest() string { return b.warm }

func (b *masimBench) step() (int64, error) {
	return 10000, b.st.Step()
}

func (b *masimBench) finish(c *checker, gold *golden) (modeled, error) {
	res := b.st.Result()
	n := masimWarmWindows + specs[2].digestUnits
	if len(res.Windows) < n {
		return modeled{}, fmt.Errorf("masim-churn ran %d windows, digest needs %d", len(res.Windows), n)
	}
	checkWindows(c, "masim-churn", res, b.mgr.NumPages())
	checkSavings(c, "masim-churn", res)
	checkDigest(c, gold, b.seed, "masim-churn/windows", windowsDigest(res, n))
	sv, app := savingsOver(res, n)
	return modeled{savingsPct: sv, appS: app / 1e9, samples: n}, nil
}

func (b *masimBench) managers() []*mem.Manager { return []*mem.Manager{b.mgr} }

func (b *masimBench) oplatLen() int64 { return int64(b.st.Result().OpLat.Count()) }

func (b *masimBench) close() {}
