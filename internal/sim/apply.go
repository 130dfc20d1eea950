// Migration apply engine: the real push-thread pool behind sim.Run.
//
// The paper's TS-Daemon applies each window's migration plan with PT
// parallel kernel push threads. Earlier versions of this simulator only
// modeled that (apply serially, divide the modeled time by PT); here the
// plan really is applied by PT goroutines against the shared mem.Manager.
//
// Determinism contract: results are byte-identical for any PushThreads
// value and across repeated runs. Each move splits into a pure prepare
// (mem.PrepareRegionMigration — all decompression/compression compute,
// no shared state) that workers run concurrently, and a commit
// (mem.CommitRegionMigration — every placement decision, admission check
// and counter). Workers claim moves in plan order; commits pass through a
// single turnstile in ascending job order, so the manager sees exactly
// the serial sequence of commits. A move whose pages changed tier after
// its prepare (an earlier move of the same region committed in between)
// is re-prepared page by page inside the commit, which is why same-region
// moves need no extra ordering. Float latency sums are never accumulated
// concurrently: workers write per-move results into a job-indexed array
// that sim.Run reduces in index order after the pool drains.
//
// Commit is a small share of apply wall time; the speed-up from PT comes
// from overlapping the prepares, which is where the (de)compression runs.
//
// Observability rides along behind a nil check: with no applyTrace the
// engine does exactly the work above and nothing else. With one, workers
// accumulate the wall-clock prepare/commit split, and the turnstile's
// contention counters are collected after the pool drains. Move events
// need no help from the engine: the caller builds them from the
// job-indexed outcomes. None of the traced values feed back into
// placement, so tracing can never perturb results.
package sim

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"tierscape/internal/mem"
	"tierscape/internal/obs"
	"tierscape/internal/policy"
)

// moveOutcome is one applied move's accounting plus the signal the bare
// MigrationResult doesn't carry: whether the commit observed a full
// destination (mem.ErrTierFull), which the engine treats as benign and
// would otherwise swallow.
type moveOutcome struct {
	mem.MigrationResult
	Full bool
}

// applyTrace collects one window's apply-phase wall-clock telemetry. A
// nil *applyTrace disables all of it; the engine's only residual cost is
// the nil checks.
type applyTrace struct {
	prepareNs atomic.Int64
	commitNs  atomic.Int64
	sched     obs.SchedulerStats
}

// finishMove settles job i's outcome: a full destination
// (mem.ErrTierFull) is benign — the manager completed the sweep and its
// partial accounting stays valid, matching the migrateRegion helper — and
// lands on the outcome's Full flag; any other error is returned as the
// job's hard failure and records nothing.
func finishMove(i int, mr mem.MigrationResult, err error, results []moveOutcome) error {
	full := errors.Is(err, mem.ErrTierFull)
	if err != nil && !full {
		return err
	}
	results[i] = moveOutcome{MigrationResult: mr, Full: full}
	return nil
}

// turnstile admits commits strictly in job order: await(i) blocks until
// advance has been called i times. It counts the awaits that actually had
// to block and the wall time they spent blocked.
type turnstile struct {
	mu      sync.Mutex
	cond    sync.Cond
	next    int
	blocked int
	stallNs int64
}

func newTurnstile() *turnstile {
	t := &turnstile{}
	t.cond.L = &t.mu
	return t
}

func (t *turnstile) await(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next == i {
		return
	}
	t.blocked++
	t0 := time.Now()
	for t.next != i {
		t.cond.Wait()
	}
	t.stallNs += int64(time.Since(t0))
}

func (t *turnstile) advance() {
	t.mu.Lock()
	t.next++
	t.mu.Unlock()
	t.cond.Broadcast()
}

// applyMoves applies one window's migration plan with `workers` push
// threads and returns the per-move outcomes indexed like moves. Workers
// claim moves in plan order, prepare them concurrently and commit them
// through the turnstile in plan order. Hard errors are reported for the
// lowest job index so the failure is independent of goroutine
// interleaving. tr, when non-nil, collects the window's apply
// observability.
func applyMoves(m *mem.Manager, moves []policy.Move, workers int, tr *applyTrace) ([]moveOutcome, error) {
	n := len(moves)
	results := make([]moveOutcome, n)
	if n == 0 {
		return results, nil
	}
	workers = min(workers, n)
	errs := make([]error, n)
	ts := newTurnstile()
	var cursor atomic.Int64

	// runJob prepares job i, waits for job i-1 to commit, commits job i
	// and lets job i+1 through. Every job takes its turn, even after a
	// prepare error, or its successors would wait forever.
	runJob := func(i int, sc *mem.MigrationScratch) {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		pr, err := m.PrepareRegionMigrationScratch(moves[i].Region, moves[i].Dest, sc)
		if tr != nil {
			tr.prepareNs.Add(int64(time.Since(t0)))
		}
		ts.await(i)
		var mr mem.MigrationResult
		if err == nil {
			var t1 time.Time
			if tr != nil {
				t1 = time.Now()
			}
			mr, err = m.CommitRegionMigration(pr)
			if tr != nil {
				tr.commitNs.Add(int64(time.Since(t1)))
			}
		}
		errs[i] = finishMove(i, mr, err, results)
		ts.advance()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &mem.MigrationScratch{}
			defer sc.Drain()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				runJob(i, sc)
			}
		}()
	}
	wg.Wait()
	if tr != nil {
		tr.sched = obs.SchedulerStats{Jobs: n, BlockedAwaits: ts.blocked, StallNs: ts.stallNs}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
