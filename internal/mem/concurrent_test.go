package mem

// Concurrency suite for the manager: CI runs these under
// `go test -race -run Concurrent -count=3` (see .github/workflows/ci.yml),
// so every test here must be deterministic in its assertions even when its
// goroutine interleavings are not.

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/ztier"
)

// lcg is a tiny deterministic per-goroutine sequence so stress workers
// make reproducible choices without sharing a rand source.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 17)
}

// TestConcurrentStressManager hammers one shared Manager from migrator,
// accessor and compaction goroutines at once — the raw (unordered) push
// thread shape. The race detector checks the locking; the final
// conservation invariants check that atomic residency accounting never
// loses or duplicates a page.
func TestConcurrentStressManager(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	const numPages = 8 * RegionPages
	m, err := NewManager(Config{
		NumPages:          numPages,
		Content:           corpus.NewGenerator(corpus.Dickens, 7),
		DRAMCapacityPages: numPages / 2, // force fault-spill and fallback paths
		ByteTiers:         []media.Kind{media.NVMM},
		CompressedTiers:   []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	numTiers := len(m.Tiers())
	numRegions := m.NumRegions()

	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
	}
	// Migrators: random region → random tier, full sweep semantics.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed lcg) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r := RegionID(seed.next() % uint64(numRegions))
				dest := TierID(seed.next() % uint64(numTiers))
				if _, err := m.MigrateRegion(r, dest); err != nil && !errors.Is(err, ErrTierFull) {
					fail("migrate region %d → tier %d: %v", r, dest, err)
					return
				}
			}
		}(lcg(100 + g))
	}
	// Accessors: reads and writes, including pages mid-migration.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed lcg) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				p := PageID(seed.next() % numPages)
				if _, err := m.Access(p, i%4 == 0); err != nil {
					fail("access page %d: %v", p, err)
					return
				}
			}
		}(lcg(200 + g))
	}
	// Compactor + stat readers: the daemon-side observers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			m.CompactBudgeted(0)
			m.TierPages()
			m.TierFootprintBytes()
			m.Counters()
			m.RegionResidency(RegionID(i % int(numRegions)))
			for _, ti := range m.Tiers() {
				if ti.Compressed {
					m.MeasuredRatio(ti.ID, 0.5)
				}
			}
		}
	}()
	wg.Wait()

	// Conservation: every page accounted for exactly once, in both the
	// per-tier residency counters and the page table itself.
	var total int64
	for _, n := range m.TierPages() {
		if n < 0 {
			t.Fatalf("negative tier residency: %v", m.TierPages())
		}
		total += n
	}
	if total != numPages {
		t.Fatalf("tier residency sums to %d, want %d", total, numPages)
	}
	byPTE := make([]int64, numTiers)
	for r := RegionID(0); r < RegionID(numRegions); r++ {
		for tier, n := range m.RegionResidency(r) {
			byPTE[tier] += n
		}
	}
	if !reflect.DeepEqual(byPTE, m.TierPages()) {
		t.Fatalf("page-table residency %v != counter residency %v", byPTE, m.TierPages())
	}
	c := m.Counters()
	if c.Faults < 0 || c.Migrations < 0 || c.Rejects < 0 {
		t.Fatalf("counter went negative: %+v", c)
	}
}

// boundedManager builds the capacity-property fixture: DRAM + one
// compressed tier whose pool is capped at limitPoolPages.
func boundedManager(t *testing.T, numPages int64, limitPoolPages int) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		NumPages:        numPages,
		Content:         corpus.NewGenerator(corpus.Dickens, 11),
		CompressedTiers: []ztier.Config{ztier.CT1()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if limitPoolPages > 0 {
		if err := m.SetCompressedTierLimit(m.Tiers()[1].ID, limitPoolPages); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestConcurrentCapacityReservationProperty is the admission property:
// demoting every region into a compressed tier that only has room for
// about half of them, (a) the pool's high-water mark never exceeds the
// byte budget no matter how many goroutines demote at once, and (b) the
// deterministic prepare/commit path reproduces the serial Rejected
// accounting exactly, region by region.
func TestConcurrentCapacityReservationProperty(t *testing.T) {
	const numPages = 8 * RegionPages

	// Size the budget from an unbounded serial run: half the pool pages
	// the full demotion actually needs, so roughly half the stores hit
	// the limit.
	probe := boundedManager(t, numPages, 0)
	ct := probe.Tiers()[1].ID
	for r := RegionID(0); r < RegionID(probe.NumRegions()); r++ {
		if _, err := probe.MigrateRegion(r, ct); err != nil {
			t.Fatal(err)
		}
	}
	full, err := probe.CompressedTierStats(ct)
	if err != nil {
		t.Fatal(err)
	}
	budget := full.PoolPages / 2
	if budget < 1 {
		t.Fatalf("degenerate budget from %d pool pages", full.PoolPages)
	}

	// Serial ground truth.
	serial := boundedManager(t, numPages, budget)
	nRegions := serial.NumRegions()
	serialRes := make([]MigrationResult, nRegions)
	for r := int64(0); r < nRegions; r++ {
		mr, err := serial.MigrateRegion(RegionID(r), ct)
		if err != nil && !errors.Is(err, ErrTierFull) {
			t.Fatal(err)
		}
		serialRes[r] = mr
	}
	ss, _ := serial.CompressedTierStats(ct)
	if ss.FullRejects == 0 {
		t.Fatal("budget never hit; property test is vacuous")
	}
	if ss.HighPoolPages > budget {
		t.Fatalf("serial run overshot the budget: high-water %d > %d", ss.HighPoolPages, budget)
	}

	// (a) Raw concurrency: goroutines race whole regions in; admission
	// under the tier lock must still never overshoot the byte budget.
	raw := boundedManager(t, numPages, budget)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := next.Add(1)
				if r >= nRegions {
					return
				}
				if _, err := raw.MigrateRegion(RegionID(r), ct); err != nil && !errors.Is(err, ErrTierFull) {
					t.Errorf("region %d: %v", r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rs, _ := raw.CompressedTierStats(ct)
	if rs.HighPoolPages > budget {
		t.Fatalf("concurrent demotions overshot the budget: high-water %d pool pages > %d",
			rs.HighPoolPages, budget)
	}
	if got := raw.TierFootprintBytes()[ct]; got > int64(budget)*PageSize {
		t.Fatalf("final footprint %d bytes exceeds budget %d bytes", got, int64(budget)*PageSize)
	}

	// (b) Deterministic engine shape: concurrent prepares, commits in
	// region order — Rejected (and everything else) must equal the serial
	// ground truth exactly.
	ordered := boundedManager(t, numPages, budget)
	prepared := make([]*PreparedRegion, nRegions)
	var pwg sync.WaitGroup
	var pnext atomic.Int64
	pnext.Store(-1)
	for w := 0; w < 4; w++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for {
				r := pnext.Add(1)
				if r >= nRegions {
					return
				}
				pr, err := ordered.PrepareRegionMigration(RegionID(r), ct)
				if err != nil {
					t.Errorf("prepare region %d: %v", r, err)
					return
				}
				prepared[r] = pr
			}
		}()
	}
	pwg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for r := int64(0); r < nRegions; r++ {
		mr, err := ordered.CommitRegionMigration(prepared[r])
		if err != nil && !errors.Is(err, ErrTierFull) {
			t.Fatal(err)
		}
		if mr != serialRes[r] {
			t.Fatalf("region %d: ordered commit %+v != serial %+v", r, mr, serialRes[r])
		}
	}
	os, _ := ordered.CompressedTierStats(ct)
	if os != ss {
		t.Fatalf("ordered-commit tier stats differ from serial:\nordered: %+v\nserial:  %+v", os, ss)
	}
	if !reflect.DeepEqual(ordered.TierPages(), serial.TierPages()) {
		t.Fatalf("residency differs: %v vs %v", ordered.TierPages(), serial.TierPages())
	}
	if ordered.Counters() != serial.Counters() {
		t.Fatalf("counters differ: %+v vs %+v", ordered.Counters(), serial.Counters())
	}
}
