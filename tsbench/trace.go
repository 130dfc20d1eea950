package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tierscape/internal/corpus"
	"tierscape/internal/experiments"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/telemetry"
	"tierscape/internal/workload"
)

// sampleEvery is the 1-in-N rate at which calls as cheap as NextOp and
// Fill are timed; every call is counted. Their time is estimated as the
// mean sampled call times the call count.
const sampleEvery = 64

// sampledCounter counts calls and times one in sampleEvery of them.
type sampledCounter struct {
	calls, sampled, sampledNs atomic.Int64
}

func (c *sampledCounter) seconds() float64 {
	s := c.sampled.Load()
	if s == 0 {
		return 0
	}
	return float64(c.sampledNs.Load()) / float64(s) * float64(c.calls.Load()) / 1e9
}

type tracedWorkload struct {
	workload.Workload
	c *sampledCounter
}

func (w tracedWorkload) NextOp(buf []workload.Access) []workload.Access {
	if w.c.calls.Add(1)%sampleEvery != 0 {
		return w.Workload.NextOp(buf)
	}
	t0 := time.Now()
	buf = w.Workload.NextOp(buf)
	w.c.sampledNs.Add(int64(time.Since(t0)))
	w.c.sampled.Add(1)
	return buf
}

type tracedSource struct {
	corpus.Source
	c *sampledCounter
}

func (s tracedSource) Fill(pageIdx uint64, buf []byte) {
	if s.c.calls.Add(1)%sampleEvery != 0 {
		s.Source.Fill(pageIdx, buf)
		return
	}
	t0 := time.Now()
	s.Source.Fill(pageIdx, buf)
	s.c.sampledNs.Add(int64(time.Since(t0)))
	s.c.sampled.Add(1)
}

// tracedModel times every Recommend call and records it as a span whose
// parent is the tick or window being stepped.
type tracedModel struct {
	model.Model
	tr *tracer
}

func (m tracedModel) Recommend(mg *mem.Manager, prof telemetry.Profile) model.Recommendation {
	t0 := time.Now()
	r := m.Model.Recommend(mg, prof)
	m.tr.span("Recommend", "model", t0, time.Since(t0), m.tr.cur.Load())
	return r
}

// tracedRecorder times the program's own Recorder (if any) and captures
// each window's snapshot counters and wall-clock phase split.
type tracedRecorder struct {
	inner obs.Recorder
	tr    *tracer
}

func (r tracedRecorder) RecordWindow(w obs.WindowSnapshot) {
	r.tr.addWindow(&w)
	if r.inner != nil {
		t0 := time.Now()
		r.inner.RecordWindow(w)
		r.tr.noteRecord(t0)
	}
}

func (r tracedRecorder) RecordMove(ev obs.MoveEvent) {
	if r.inner != nil {
		t0 := time.Now()
		r.inner.RecordMove(ev)
		r.tr.noteRecord(t0)
	}
}

func (r tracedRecorder) RecordRuntime(rt obs.WindowRuntime) {
	r.tr.addRuntime(rt, time.Now())
	if r.inner != nil {
		t0 := time.Now()
		r.inner.RecordRuntime(rt)
		r.tr.noteRecord(t0)
	}
}

// span is one traced interval, written out in Chrome trace-event form.
type span struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`  // µs since the tracer started
	Dur  int64  `json:"dur"` // µs
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Args struct {
		ID     int64 `json:"id"`
		Parent int64 `json:"parent,omitempty"`
	} `json:"args"`
}

// tracer collects the per-layer numbers of a traced run. Wrappers may be
// called from push-thread workers (Fill) and the daemon loop (NextOp,
// Recommend, Recorder) concurrently with the timing loop, so shared state is
// atomic or under mu.
type tracer struct {
	workload string
	t0       time.Time
	buildNs  atomic.Int64
	nextOp   sampledCounter
	fill     sampledCounter
	cur      atomic.Int64 // id of the tick/window span being stepped
	nextID   atomic.Int64

	// on gates accumulation to the traced timed part (setup's warm-up
	// windows flow through the same wrappers).
	on atomic.Bool

	mu          sync.Mutex
	spans       []span
	unitOpen    time.Time
	recordNs    int64
	recordCalls int64
	phaseNs     [obs.NumPhases]float64
	prepareNs   float64
	commitNs    float64
	stallNs     int64
	blocked     int64
	moves       int64
	rejected    int64
	skipped     int64
	compacted   int64
	objsMoved   int64
	fallbacks   int64
	warmHits    int64
	dropped     int64
	faultsTab   int64
	jobs        int64
	expPhaseNs  [obs.NumPhases]float64
	recommendNs int64
	recommends  int64
	unitNs      int64

	// Counter snapshots of the managers at begin and end.
	mgrs       []*mem.Manager
	c0, c1     mem.Counters
	z0, z1     [4]int64 // stores, loads, rejects, same-filled
	oplat      int64
	nextOpBase int64
	fillBase   int64
	nextOpS0   float64
	fillS0     float64
}

func newTracer(wl string) *tracer {
	return &tracer{workload: wl, t0: time.Now()}
}

func (t *tracer) wrapWorkload(w workload.Workload) workload.Workload {
	return tracedWorkload{Workload: w, c: &t.nextOp}
}

func (t *tracer) wrapSource(s corpus.Source) corpus.Source {
	return tracedSource{Source: s, c: &t.fill}
}

func (t *tracer) wrapModel(m model.Model) model.Model { return tracedModel{Model: m, tr: t} }

func (t *tracer) wrapRecorder(r obs.Recorder) obs.Recorder { return tracedRecorder{inner: r, tr: t} }

func (t *tracer) span(name, cat string, start time.Time, d time.Duration, parent int64) {
	if !t.on.Load() {
		return
	}
	id := t.nextID.Add(1)
	s := span{Name: name, Cat: cat, Ph: "X", Ts: start.Sub(t.t0).Microseconds(), Dur: d.Microseconds(),
		Pid: 1, Tid: 1}
	s.Args.ID, s.Args.Parent = id, parent
	if cat == "model" || cat == "phase" {
		s.Tid = 2
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	if cat == "model" {
		t.recommendNs += int64(d)
		t.recommends++
	}
	t.mu.Unlock()
}

func (t *tracer) noteRecord(t0 time.Time) {
	if !t.on.Load() {
		return
	}
	d := time.Since(t0)
	t.mu.Lock()
	t.recordNs += int64(d)
	t.recordCalls++
	t.mu.Unlock()
}

func (t *tracer) addWindow(w *obs.WindowSnapshot) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.moves += int64(w.Moves)
	t.rejected += int64(w.Rejected)
	t.skipped += int64(w.Skipped)
	t.compacted += int64(w.CompactedPages)
	t.objsMoved += int64(w.CompactObjectsMoved)
	t.fallbacks += int64(w.SolverFallbacks)
	if w.WarmHit {
		t.warmHits++
	}
	t.dropped += int64(w.DroppedPressure + w.DroppedCapacity + w.DroppedBudget)
}

// addRuntime accumulates a window's phase split and records the phases as
// spans laid end to end, ending when the runtime record arrived.
func (t *tracer) addRuntime(rt obs.WindowRuntime, end time.Time) {
	if !t.on.Load() {
		return
	}
	var total float64
	t.mu.Lock()
	for p, ns := range rt.PhaseWallNs {
		t.phaseNs[p] += ns
		total += ns
	}
	t.prepareNs += rt.PrepareWallNs
	t.commitNs += rt.CommitWallNs
	t.stallNs += rt.Sched.StallNs
	t.blocked += int64(rt.Sched.BlockedAwaits)
	t.mu.Unlock()
	start := end.Add(-time.Duration(total))
	parent := t.cur.Load()
	for p, ns := range rt.PhaseWallNs {
		d := time.Duration(ns)
		t.span("phase."+obs.Phase(p).String(), "phase", start, d, parent)
		start = start.Add(d)
	}
}

// addLive folds one Fig7 call's obs.Live aggregate into the tracer.
func (t *tracer) addLive(vars map[string]any, windowsPerJob int64) {
	i64 := func(k string) int64 { v, _ := vars[k].(int64); return v }
	f64 := func(k string) float64 { v, _ := vars[k].(float64); return v }
	t.mu.Lock()
	defer t.mu.Unlock()
	if windowsPerJob > 0 {
		t.jobs += i64("windows") / windowsPerJob
	}
	t.moves += i64("moved_pages")
	t.rejected += i64("rejected_pages")
	t.skipped += i64("skipped_pages")
	t.compacted += i64("compacted_pages")
	t.objsMoved += i64("compact_objects_moved")
	t.fallbacks += i64("solver_fallbacks")
	t.warmHits += i64("warm_hits")
	t.dropped += i64("dropped_pressure") + i64("dropped_capacity") + i64("dropped_budget")
	if ph, ok := vars["phase_wall_ns"].(map[string]float64); ok {
		for p := 0; p < obs.NumPhases; p++ {
			ns := ph[obs.Phase(p).String()]
			t.phaseNs[p] += ns
			t.expPhaseNs[p] += ns
		}
	}
	t.prepareNs += f64("prepare_wall_ns")
	t.commitNs += f64("commit_wall_ns")
	t.stallNs += i64("sched_stall_ns")
	t.blocked += i64("sched_blocked")
}

// addFig7Faults sums the faults column of a Fig7 table.
func (t *tracer) addFig7Faults(tab *experiments.Table) {
	var n int64
	for _, c := range column(tab, "faults") {
		if v, err := strconv.ParseInt(c, 10, 64); err == nil {
			n += v
		}
	}
	t.mu.Lock()
	t.faultsTab += n
	t.mu.Unlock()
}

// unitStart opens the span of a traced timed unit; unitEnd closes it.
func (t *tracer) unitStart() {
	now := time.Now()
	t.mu.Lock()
	t.unitOpen = now
	t.mu.Unlock()
	t.cur.Store(t.nextID.Add(1))
}

func (t *tracer) unitEnd() {
	t.mu.Lock()
	open := t.unitOpen
	t.unitOpen = time.Time{}
	t.mu.Unlock()
	if open.IsZero() {
		return
	}
	d := time.Since(open)
	id := t.cur.Load()
	if t.on.Load() {
		s := span{Name: unitName(t.workload), Cat: "unit", Ph: "X", Ts: open.Sub(t.t0).Microseconds(),
			Dur: d.Microseconds(), Pid: 1, Tid: 1}
		s.Args.ID = id
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.unitNs += int64(d)
		t.mu.Unlock()
	}
}

func unitName(wl string) string {
	switch wl {
	case "daemon-kv":
		return "tick"
	case "masim-churn":
		return "window"
	}
	return "Fig7"
}

// compressedTotals sums the compressed-tier counters of the managers.
func compressedTotals(ms []*mem.Manager) (c mem.Counters, z [4]int64) {
	for _, m := range ms {
		mc := m.Counters()
		c.Faults += mc.Faults
		c.Migrations += mc.Migrations
		c.Rejects += mc.Rejects
		for _, ti := range m.Tiers() {
			if !ti.Compressed {
				continue
			}
			s, err := m.CompressedTierStats(ti.ID)
			if err != nil {
				continue
			}
			z[0] += s.Stores
			z[1] += s.Faults
			z[2] += s.Rejects
			z[3] += s.SameFilled
		}
	}
	return c, z
}

// begin snapshots counters at the start of the traced timed part.
func (t *tracer) begin(b bench) {
	t.mgrs = b.managers()
	t.c0, t.z0 = compressedTotals(t.mgrs)
	t.nextOpBase, t.fillBase = t.nextOp.calls.Load(), t.fill.calls.Load()
	t.nextOpS0, t.fillS0 = t.nextOp.seconds(), t.fill.seconds()
	t.on.Store(true)
}

// end snapshots counters at the end of the traced timed part.
func (t *tracer) end(b bench) {
	t.on.Store(false)
	t.c1, t.z1 = compressedTotals(t.mgrs)
	if o, ok := b.(interface{ oplatLen() int64 }); ok {
		t.oplat = o.oplatLen()
	}
}

// report assembles the per-layer metrics of the traced timed part.
func (t *tracer) report(tm *timing, shares map[string]float64) *report {
	r := newReport()
	t.mu.Lock()
	defer t.mu.Unlock()
	units := len(tm.units)
	s := func(name string, v float64) { r.add(name, "s", "host", units, v) }
	n := func(name string, v int64) { r.add(name, "count", "host", units, float64(v)) }
	f := func(name string, v float64) { r.add(name, "ratio", "host", units, v) }
	sec := func(ns float64) float64 { return ns / 1e9 }

	s("workload.build_s", float64(t.buildNs.Load())/1e9)
	s("workload.nextop_s", t.nextOp.seconds()-t.nextOpS0)
	n("workload.nextop_calls", t.nextOp.calls.Load()-t.nextOpBase)
	f("workload.cpu_frac", shares["workload.build"]+shares["workload.nextop"])
	f("workload.build_cpu_frac", shares["workload.build"])
	f("workload.nextop_cpu_frac", shares["workload.nextop"])
	s("corpus.fill_s", t.fill.seconds()-t.fillS0)
	n("corpus.fill_calls", t.fill.calls.Load()-t.fillBase)
	f("corpus.cpu_frac", shares["corpus"])

	n("compress.stores", t.z1[0]-t.z0[0])
	n("compress.loads", t.z1[1]-t.z0[1])
	n("compress.rejects", t.z1[2]-t.z0[2])
	n("compress.same_filled", t.z1[3]-t.z0[3])
	f("compress.compress_cpu_frac", shares["compress.compress"])
	f("compress.decompress_cpu_frac", shares["compress.decompress"])

	n("zpool.compact_pages", t.compacted)
	n("zpool.compact_objects_moved", t.objsMoved)
	f("zpool.cpu_frac", shares["zpool"])

	s("model.recommend_s", float64(t.recommendNs)/1e9)
	n("model.recommend_calls", t.recommends)
	f("model.cpu_frac", shares["model"])
	n("ilp.fallbacks", t.fallbacks)
	n("ilp.warm_hits", t.warmHits)

	s("policy.plan_s", sec(t.phaseNs[obs.PhasePlan]))
	n("policy.dropped_moves", t.dropped)
	s("telemetry.profile_s", sec(t.phaseNs[obs.PhaseProfile]))

	faults := t.c1.Faults - t.c0.Faults
	if t.faultsTab > 0 {
		faults = t.faultsTab
	}
	n("mem.migrations", t.moves)
	n("mem.faults", faults)
	n("mem.rejects", t.rejected)
	useful := 0.0
	if tot := t.moves + t.rejected + t.skipped; tot > 0 {
		useful = float64(t.moves) / float64(tot)
	}
	f("mem.useful_move_frac", useful)
	f("mem.access_cpu_frac", shares["mem.access"])
	f("mem.migrate_cpu_frac", shares["mem.migrate"])

	var phases float64
	for _, ns := range t.phaseNs {
		phases += ns
	}
	s("sim.phase.apply_s", sec(t.phaseNs[obs.PhaseApply]))
	s("sim.phase.compact_s", sec(t.phaseNs[obs.PhaseCompact]))
	s("sim.prepare_s", sec(t.prepareNs))
	s("sim.commit_s", sec(t.commitNs))
	s("sim.sched_stall_s", sec(float64(t.stallNs)))
	n("sim.sched_blocked_awaits", t.blocked)
	loop := 0.0
	if t.workload != "fig7-small" {
		loop = sec(float64(t.unitNs) - phases)
	}
	s("sim.access_loop_s", loop)
	f("sim.cpu_frac", shares["sim"])
	f("stats.cpu_frac", shares["stats"])
	n("stats.oplat_len", t.oplat)

	s("obs.record_s", float64(t.recordNs)/1e9)
	n("obs.record_calls", t.recordCalls)
	f("obs.cpu_frac", shares["obs"])

	n("experiments.jobs", t.jobs)
	for p := 0; p < obs.NumPhases; p++ {
		s("experiments.phase."+obs.Phase(p).String()+"_s", sec(t.expPhaseNs[p]))
	}

	n("runtime.gc_cycles", int64(tm.gcCycles))
	gcFrac := 0.0
	if tm.totalCPU > 0 {
		gcFrac = tm.gcCPU / tm.totalCPU
	}
	f("runtime.gc_cpu_frac", gcFrac)
	r.add("runtime.heap_growth_kb_per_window", "KB", "host", units, tm.growth/1024)
	f("other.cpu_frac", shares["other"])
	return r
}

// writeSpans writes the collected spans as a Chrome trace-event file
// (load it in chrome://tracing or Perfetto).
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(struct {
		TraceEvents []span `json:"traceEvents"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
