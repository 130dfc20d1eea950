package mem

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/stats"
	"tierscape/internal/ztier"
)

func testManager(t *testing.T, numPages int64) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		NumPages:        numPages,
		Content:         corpus.NewGenerator(corpus.Dickens, 42),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInitialPlacementAllDRAM(t *testing.T) {
	m := testManager(t, 1024)
	tp := m.TierPages()
	if tp[0] != 1024 {
		t.Fatalf("DRAM pages = %d, want 1024", tp[0])
	}
	for i := 1; i < len(tp); i++ {
		if tp[i] != 0 {
			t.Fatalf("tier %d pages = %d, want 0", i, tp[i])
		}
	}
}

func TestTierLayout(t *testing.T) {
	m := testManager(t, 64)
	tiers := m.Tiers()
	if len(tiers) != 4 {
		t.Fatalf("tier count = %d, want 4 (DRAM, NVMM, CT1, CT2)", len(tiers))
	}
	if tiers[0].Name != "DRAM" || tiers[0].Compressed {
		t.Error("tier 0 must be DRAM")
	}
	if tiers[1].Name != "NVMM" || tiers[1].Compressed {
		t.Error("tier 1 must be NVMM")
	}
	if !tiers[2].Compressed || !tiers[3].Compressed {
		t.Error("tiers 2,3 must be compressed")
	}
	if !(tiers[0].AccessNs < tiers[1].AccessNs && tiers[1].AccessNs < tiers[2].AccessNs) {
		t.Error("access latency must increase DRAM < NVMM < CT1")
	}
	if !(tiers[2].AccessNs < tiers[3].AccessNs) {
		t.Error("CT1 must be faster than CT2")
	}
}

func TestDRAMAccessLatency(t *testing.T) {
	m := testManager(t, 64)
	res, err := m.Access(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault || res.Tier != DRAMTier {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.LatencyNs != 33 {
		t.Fatalf("DRAM access latency = %v, want 33", res.LatencyNs)
	}
}

func TestMigrateToNVMMAndAccess(t *testing.T) {
	m := testManager(t, 64)
	if _, err := m.MigratePage(5, 1); err != nil {
		t.Fatal(err)
	}
	if m.TierOf(5) != 1 {
		t.Fatal("page 5 not in NVMM")
	}
	res, err := m.Access(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault {
		t.Fatal("NVMM access must not fault")
	}
	if res.LatencyNs != 350 {
		t.Fatalf("NVMM latency = %v, want 350", res.LatencyNs)
	}
	// Page stays in NVMM (no automatic promotion for byte tiers).
	if m.TierOf(5) != 1 {
		t.Fatal("NVMM access should not move the page")
	}
}

func TestCompressedFaultPromotesToDRAM(t *testing.T) {
	m := testManager(t, 64)
	if _, err := m.MigratePage(7, 2); err != nil {
		t.Fatal(err)
	}
	if m.TierOf(7) != 2 {
		t.Fatal("page 7 not in CT1")
	}
	res, err := m.Access(7, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fault || res.Tier != 2 || res.PromotedTo != DRAMTier {
		t.Fatalf("unexpected fault result %+v", res)
	}
	if res.LatencyNs < 1000 {
		t.Fatalf("fault latency = %v ns, implausibly low", res.LatencyNs)
	}
	if m.TierOf(7) != DRAMTier {
		t.Fatal("faulted page must now be in DRAM")
	}
	if m.Counters().Faults != 1 {
		t.Fatalf("Faults = %d", m.Counters().Faults)
	}
	// Second access: fast DRAM hit.
	res2, _ := m.Access(7, false)
	if res2.Fault || res2.LatencyNs != 33 {
		t.Fatalf("post-fault access %+v", res2)
	}
}

func TestPageCountsConserved(t *testing.T) {
	m := testManager(t, 512)
	rng := stats.NewRNG(7)
	for i := 0; i < 2000; i++ {
		p := PageID(rng.Intn(512))
		switch rng.Intn(3) {
		case 0:
			if _, err := m.Access(p, rng.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		default:
			dest := TierID(rng.Intn(4))
			if _, err := m.MigratePage(p, dest); err != nil && !errors.Is(err, ErrTierFull) {
				t.Fatal(err)
			}
		}
		var total int64
		for _, v := range m.TierPages() {
			total += v
		}
		if total != 512 {
			t.Fatalf("iteration %d: %d pages tracked, want 512", i, total)
		}
	}
}

func TestMigrateRegion(t *testing.T) {
	m := testManager(t, RegionPages*2)
	res, err := m.MigrateRegion(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved+res.Rejected != RegionPages {
		t.Fatalf("moved %d + rejected %d != %d", res.Moved, res.Rejected, RegionPages)
	}
	rr := m.RegionResidency(1)
	if rr[3] != int64(res.Moved) {
		t.Fatalf("residency %v does not reflect %d moved", rr, res.Moved)
	}
	if m.DominantTier(1) != 3 {
		t.Fatalf("dominant tier = %d, want 3", m.DominantTier(1))
	}
	if m.DominantTier(0) != DRAMTier {
		t.Fatal("region 0 should still be DRAM-dominant")
	}
}

func TestCompressedToCompressedMigration(t *testing.T) {
	m := testManager(t, 64)
	if _, err := m.MigratePage(3, 2); err != nil {
		t.Fatal(err)
	}
	res, err := m.MigratePage(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 1 {
		t.Fatalf("CT1->CT2 move failed: %+v", res)
	}
	if m.TierOf(3) != 3 {
		t.Fatal("page not in CT2")
	}
	// The naive path decompresses then recompresses: latency must include
	// both a load and a store component.
	if res.LatencyNs < 5000 {
		t.Fatalf("CT->CT migration latency %v ns implausibly low", res.LatencyNs)
	}
	s2, _ := m.CompressedTierStats(2)
	s3, _ := m.CompressedTierStats(3)
	if s2.Pages != 0 || s3.Pages != 1 {
		t.Fatalf("tier stats: CT1=%d CT2=%d pages", s2.Pages, s3.Pages)
	}
}

func TestIncompressiblePagesRejected(t *testing.T) {
	m, err := NewManager(Config{
		NumPages:        64,
		Content:         corpus.NewGenerator(corpus.Random, 1),
		CompressedTiers: []ztier.Config{ztier.CT1()},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.MigratePage(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 1 || res.Moved != 0 {
		t.Fatalf("random page: %+v, want rejection", res)
	}
	if m.TierOf(0) != DRAMTier {
		t.Fatal("rejected page must remain in DRAM")
	}
	if m.Counters().Rejects != 1 {
		t.Fatalf("Rejects = %d", m.Counters().Rejects)
	}
}

func TestDRAMCapacityFaultSpill(t *testing.T) {
	// DRAM capacity 8: after filling DRAM, faults must spill to NVMM.
	m, err := NewManager(Config{
		NumPages:          16,
		Content:           corpus.NewGenerator(corpus.NCI, 2),
		DRAMCapacityPages: 8,
		ByteTiers:         []media.Kind{media.NVMM},
		CompressedTiers:   []ztier.Config{ztier.CT1()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Note: initial placement put all 16 in DRAM (over capacity by
	// construction); migrate 8 out to compressed, leaving DRAM full at 8.
	for p := PageID(8); p < 16; p++ {
		if _, err := m.MigratePage(p, 2); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Access(8, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fault || res.PromotedTo != 1 {
		t.Fatalf("fault with full DRAM: %+v, want promotion to NVMM", res)
	}
}

func TestMigrateToFullBATier(t *testing.T) {
	m, err := NewManager(Config{
		NumPages:          4,
		Content:           corpus.NewGenerator(corpus.NCI, 3),
		DRAMCapacityPages: 0,
		ByteTiers:         []media.Kind{media.NVMM},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shrink NVMM to 1 page by wrapping: move 2 pages; second must fail.
	m.ba[1].info.CapacityPages = 1
	if _, err := m.MigratePage(0, 1); err != nil {
		t.Fatal(err)
	}
	_, err = m.MigratePage(1, 1)
	if !errors.Is(err, ErrTierFull) {
		t.Fatalf("err = %v, want ErrTierFull", err)
	}
	if m.TierOf(1) != DRAMTier {
		t.Fatal("page must remain in DRAM after failed migration")
	}
	var total int64
	for _, v := range m.TierPages() {
		total += v
	}
	if total != 4 {
		t.Fatalf("pages leaked: %d", total)
	}
}

func TestContentResultsDoNotAlias(t *testing.T) {
	// Regression: content() used to hand every caller the same persistent
	// scratch array, so holding two results silently corrupted the first.
	m := testManager(t, 8)
	a := m.content(0, make([]byte, PageSize))
	b := m.content(1, make([]byte, PageSize))
	c := m.content(0, make([]byte, PageSize))
	if &a[0] == &b[0] {
		t.Fatal("content results share a backing array")
	}
	if string(a) != string(c) {
		t.Fatal("content not deterministic for the same page")
	}
	if string(a) == string(b) {
		t.Fatal("distinct pages produced identical content")
	}
}

// TestMigratePageFallbackOnFull covers MigratePage's fallback paths when
// the requested destination cannot take the page, table-driven over the
// source-tier kinds.
func TestMigratePageFallbackOnFull(t *testing.T) {
	// Layout: DRAM (unbounded), NVMM capacity 1, CT1. Tier ids 0,1,2.
	newM := func() *Manager {
		m, err := NewManager(Config{
			NumPages:        16,
			Content:         corpus.NewGenerator(corpus.NCI, 11),
			ByteTiers:       []media.Kind{media.NVMM},
			CompressedTiers: []ztier.Config{ztier.CT1()},
		})
		if err != nil {
			t.Fatal(err)
		}
		m.ba[1].info.CapacityPages = 1
		return m
	}
	cases := []struct {
		name string
		prep func(m *Manager) PageID // returns the page to migrate
		// expected outcome of MigratePage(page, 1 /* full NVMM */):
		wantTier     TierID // where the page must end up
		wantRejected int
		wantMoved    int
	}{
		{
			name: "BA source stays put",
			prep: func(m *Manager) PageID {
				if _, err := m.MigratePage(0, 1); err != nil { // fills NVMM
					t.Fatal(err)
				}
				return 1
			},
			wantTier: DRAMTier,
		},
		{
			name: "CT source falls back to fault destination",
			prep: func(m *Manager) PageID {
				if _, err := m.MigratePage(0, 1); err != nil { // fills NVMM
					t.Fatal(err)
				}
				if _, err := m.MigratePage(2, 2); err != nil { // page 2 into CT1
					t.Fatal(err)
				}
				return 2
			},
			// pickFaultDestination: DRAM is unbounded, so the extracted
			// page lands there rather than being lost.
			wantTier:     DRAMTier,
			wantRejected: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newM()
			p := tc.prep(m)
			res, err := m.MigratePage(p, 1)
			if !errors.Is(err, ErrTierFull) {
				t.Fatalf("err = %v, want ErrTierFull", err)
			}
			if m.TierOf(p) != tc.wantTier {
				t.Fatalf("page ended in tier %d, want %d", m.TierOf(p), tc.wantTier)
			}
			if res.Rejected != tc.wantRejected || res.Moved != tc.wantMoved {
				t.Fatalf("result %+v, want rejected=%d moved=%d", res, tc.wantRejected, tc.wantMoved)
			}
			var total int64
			for _, v := range m.TierPages() {
				total += v
			}
			if total != 16 {
				t.Fatalf("pages leaked: %d tracked, want 16", total)
			}
		})
	}
}

func TestMigrateRegionContinuesPastFullTier(t *testing.T) {
	// Destination NVMM holds half a region; the sweep must keep going
	// after it fills, accounting for every page, and report ErrTierFull
	// exactly once at the end.
	const capacity = RegionPages / 2
	m, err := NewManager(Config{
		NumPages:  RegionPages,
		Content:   corpus.NewGenerator(corpus.NCI, 12),
		ByteTiers: []media.Kind{media.NVMM},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.ba[1].info.CapacityPages = capacity
	// Pre-place a few pages in the destination so the sweep also exercises
	// the Skipped path after the tier fills.
	for p := PageID(0); p < 4; p++ {
		if _, err := m.MigratePage(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.MigrateRegion(0, 1)
	if !errors.Is(err, ErrTierFull) {
		t.Fatalf("err = %v, want ErrTierFull", err)
	}
	if res.Skipped != 4 {
		t.Fatalf("skipped = %d, want 4 (pre-placed pages)", res.Skipped)
	}
	if res.Moved != capacity-4 {
		t.Fatalf("moved = %d, want %d (fills remaining capacity)", res.Moved, capacity-4)
	}
	// The rest of the region was attempted and stayed in DRAM.
	tp := m.TierPages()
	if tp[1] != capacity {
		t.Fatalf("NVMM pages = %d, want exactly at capacity %d", tp[1], capacity)
	}
	if tp[0] != RegionPages-capacity {
		t.Fatalf("DRAM pages = %d, want %d", tp[0], RegionPages-capacity)
	}
}

func TestMigrateRegionFullTierWithCTFallback(t *testing.T) {
	// Region resident in CT1, migrated to a too-small NVMM: pages that do
	// not fit must fall back to DRAM (the fault destination) and count as
	// rejected, not vanish from the accounting.
	const capacity = 8
	m, err := NewManager(Config{
		NumPages:        RegionPages,
		Content:         corpus.NewGenerator(corpus.NCI, 13),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MigrateRegion(0, 2); err != nil {
		t.Fatal(err)
	}
	inCT := m.TierPages()[2]
	if inCT == 0 {
		t.Fatal("setup: no pages reached CT1")
	}
	m.ba[1].info.CapacityPages = capacity
	res, err := m.MigrateRegion(0, 1)
	if !errors.Is(err, ErrTierFull) {
		t.Fatalf("err = %v, want ErrTierFull", err)
	}
	tp := m.TierPages()
	if tp[1] != capacity {
		t.Fatalf("NVMM pages = %d, want %d", tp[1], capacity)
	}
	if tp[2] != 0 {
		t.Fatalf("CT1 still holds %d pages; sweep should have drained it", tp[2])
	}
	if int64(res.Moved) != capacity-(RegionPages-inCT) && res.Moved != capacity {
		// Pages that were in DRAM (rejected at CT store time during setup)
		// may have filled part of NVMM first; either way NVMM is full.
		t.Logf("moved = %d (capacity %d, ct-resident %d)", res.Moved, capacity, inCT)
	}
	if res.Moved+res.Rejected+res.Skipped < int(inCT) {
		t.Fatalf("accounting lost pages: moved %d + rejected %d + skipped %d < %d CT pages",
			res.Moved, res.Rejected, res.Skipped, inCT)
	}
	var total int64
	for _, v := range m.TierPages() {
		total += v
	}
	if total != RegionPages {
		t.Fatalf("pages leaked: %d tracked", total)
	}
}

func TestWriteChangesContentVersion(t *testing.T) {
	m := testManager(t, 8)
	before := append([]byte(nil), m.content(0, make([]byte, PageSize))...)
	if _, err := m.Access(0, true); err != nil {
		t.Fatal(err)
	}
	after := m.content(0, make([]byte, PageSize))
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("write did not change page content version")
	}
}

func TestBadArgs(t *testing.T) {
	m := testManager(t, 8)
	if _, err := m.Access(-1, false); !errors.Is(err, ErrBadPage) {
		t.Error("negative page should fail")
	}
	if _, err := m.Access(8, false); !errors.Is(err, ErrBadPage) {
		t.Error("out-of-range page should fail")
	}
	if _, err := m.MigratePage(0, 99); !errors.Is(err, ErrNoSuchTier) {
		t.Error("bad tier should fail")
	}
	if _, err := NewManager(Config{NumPages: 0, Content: corpus.NewGenerator(corpus.NCI, 1)}); err == nil {
		t.Error("zero pages should fail")
	}
	if _, err := NewManager(Config{NumPages: 10}); err == nil {
		t.Error("missing content generator should fail")
	}
}

func TestMigrateSkipsSameTier(t *testing.T) {
	m := testManager(t, 8)
	res, err := m.MigratePage(0, DRAMTier)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 || res.Moved != 0 {
		t.Fatalf("same-tier migrate: %+v", res)
	}
}

func TestTierFootprintReflectsCompression(t *testing.T) {
	m, err := NewManager(Config{
		NumPages:        RegionPages,
		Content:         corpus.NewGenerator(corpus.NCI, 4),
		CompressedTiers: []ztier.Config{ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MigrateRegion(0, 1); err != nil {
		t.Fatal(err)
	}
	fp := m.TierFootprintBytes()
	logical := int64(RegionPages) * PageSize
	if fp[1] <= 0 || fp[1] >= logical/4 {
		t.Fatalf("CT2 footprint %d for %d logical bytes; nci should compress >4x", fp[1], logical)
	}
	ratio := m.MeasuredRatio(1, 1.0)
	if ratio <= 0 || ratio >= 0.25 {
		t.Fatalf("measured ratio %v; want < 0.25 for nci under zstd", ratio)
	}
}

func TestMeasuredRatioFallback(t *testing.T) {
	m := testManager(t, 8)
	if got := m.MeasuredRatio(2, 0.5); got != 0.5 {
		t.Fatalf("empty tier ratio = %v, want fallback 0.5", got)
	}
	if got := m.MeasuredRatio(0, 0.7); got != 0.7 {
		t.Fatalf("non-CT tier ratio = %v, want fallback", got)
	}
}

func TestChurnInvariantProperty(t *testing.T) {
	// Property: arbitrary access/migrate churn preserves page-count
	// conservation and every page remains accessible.
	f := func(seed uint64) bool {
		m, err := NewManager(Config{
			NumPages:        128,
			Content:         corpus.NewGenerator(corpus.Mixed, seed),
			ByteTiers:       []media.Kind{media.NVMM},
			CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
		})
		if err != nil {
			return false
		}
		rng := stats.NewRNG(seed)
		for i := 0; i < 500; i++ {
			p := PageID(rng.Intn(128))
			if rng.Float64() < 0.5 {
				if _, err := m.Access(p, rng.Intn(4) == 0); err != nil {
					return false
				}
			} else {
				if _, err := m.MigratePage(p, TierID(rng.Intn(4))); err != nil && !errors.Is(err, ErrTierFull) {
					return false
				}
			}
		}
		var total int64
		for _, v := range m.TierPages() {
			total += v
		}
		if total != 128 {
			return false
		}
		for p := PageID(0); p < 128; p++ {
			if _, err := m.Access(p, false); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionHelpers(t *testing.T) {
	if PageID(0).Region() != 0 || PageID(RegionPages-1).Region() != 0 || PageID(RegionPages).Region() != 1 {
		t.Fatal("PageID.Region math wrong")
	}
	m := testManager(t, RegionPages+10)
	if m.NumRegions() != 2 {
		t.Fatalf("NumRegions = %d, want 2", m.NumRegions())
	}
}

// checkPlacement verifies a manager's state from first principles: every
// compressed-resident page decompresses to the content its current
// version generates, the per-tier residency counters sum to the address
// space, and each compressed tier's page counter equals the tier's own
// live-object count.
func checkPlacement(t *testing.T, m *Manager, step string) (compressed int) {
	t.Helper()
	want := make([]byte, PageSize)
	var got []byte
	for p := PageID(0); p < PageID(m.NumPages()); p++ {
		e := m.ptes[p]
		ct, ok := m.ct(e.tier)
		if !ok {
			continue
		}
		var err error
		got, _, err = ct.tier.Load(e.handle, got[:0])
		if err != nil {
			t.Fatalf("%s: page %d in tier %d does not load: %v", step, p, e.tier, err)
		}
		if !bytes.Equal(got, m.content(p, want)) {
			t.Fatalf("%s: page %d in tier %d decompresses to the wrong content", step, p, e.tier)
		}
		compressed++
	}
	var sum int64
	for _, n := range m.TierPages() {
		sum += n
	}
	if sum != m.NumPages() {
		t.Fatalf("%s: tier residency sums to %d, want %d", step, sum, m.NumPages())
	}
	for _, ct := range m.cts {
		if got, live := ct.pages.Load(), int64(ct.tier.Stats().Pages); got != live {
			t.Fatalf("%s: tier %s counts %d pages but holds %d live objects", step, ct.info.Name, got, live)
		}
	}
	return compressed
}

// TestMigrateRegionRoundTrip drives region migrations through every move
// shape — BA→CT, same-codec CT→CT (the §7.1 direct path), cross-codec
// CT→CT, CT→BA, and a fresh demotion of rewritten pages — and checks the
// manager against checkPlacement after every step.
func TestMigrateRegionRoundTrip(t *testing.T) {
	m, err := NewManager(Config{
		NumPages: 4 * RegionPages,
		Content:  corpus.NewGenerator(corpus.Dickens, 3),
		CompressedTiers: []ztier.Config{
			{Codec: "lzo", Pool: "zsmalloc", Media: media.DRAM},
			{Codec: "lzo", Pool: "zsmalloc", Media: media.NVMM}, // same codec: direct path
			{Codec: "zstd", Pool: "zbud", Media: media.NVMM},    // cross codec
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite some of region 3's pages so their content comes from a
	// later version than the one a fresh manager would generate.
	for p := PageID(3 * RegionPages); p < 3*RegionPages+64; p += 3 {
		if _, err := m.Access(p, true); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		r    RegionID
		dest TierID
	}{
		{0, 1}, {1, 1}, {2, 3}, // demote into compressed tiers
		{0, 2},         // same-codec direct move
		{1, 3}, {2, 1}, // cross-codec recompress
		{0, 0}, {3, 3}, // promote back; fresh demotion
	}
	checked := 0
	for i, st := range steps {
		name := fmt.Sprintf("step %d (region %d → tier %d)", i, st.r, st.dest)
		res, err := m.MigrateRegion(st.r, st.dest)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := res.Moved + res.Rejected + res.Skipped; n != RegionPages || res.Moved == 0 {
			t.Fatalf("%s: %+v accounts for %d of %d pages", name, res, n, RegionPages)
		}
		checked += checkPlacement(t, m, name)
	}
	if checked == 0 {
		t.Fatal("no compressed pages were checked; the oracle is vacuous")
	}
}

// migrateScratch is MigrateRegion drawing work buffers from sc — the
// prepare/commit pair a push-thread worker runs for each move.
func migrateScratch(m *Manager, r RegionID, dest TierID, sc *MigrationScratch) (MigrationResult, error) {
	pr, err := m.PrepareRegionMigrationScratch(r, dest, sc)
	if err != nil {
		return MigrationResult{}, err
	}
	return m.CommitRegionMigration(pr)
}

// TestMigrationScratchReuse: a worker-owned arena must be refilled by the
// commit's buffer release and drained by the next prepare — reuse across
// moves instead of per-move pool round-trips — while producing results
// identical to the pool-backed path.
func TestMigrationScratchReuse(t *testing.T) {
	mA := testManager(t, 4*RegionPages)
	mB := testManager(t, 4*RegionPages)
	ct1 := TierID(2)
	sc := &MigrationScratch{}
	for r := RegionID(0); r < 4; r++ {
		got, errA := migrateScratch(mA, r, ct1, sc)
		want, errB := mB.MigrateRegion(r, ct1)
		if errors.Is(errA, ErrTierFull) != errors.Is(errB, ErrTierFull) ||
			(errA == nil) != (errB == nil) {
			t.Fatalf("region %d: scratch err %v vs pool err %v", r, errA, errB)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("region %d: scratch result %+v != pool result %+v", r, got, want)
		}
	}
	if !reflect.DeepEqual(mA.TierPages(), mB.TierPages()) {
		t.Fatal("scratch and pool paths diverged in residency")
	}
	if sc.Buffers() == 0 {
		t.Fatal("arena empty after commits: buffers were not returned for reuse")
	}
	// The arena's population must stabilize: a second sweep through the
	// same shape of work allocates nothing new.
	high := sc.Buffers()
	for r := RegionID(0); r < 4; r++ {
		if _, err := migrateScratch(mA, r, DRAMTier, sc); err != nil {
			t.Fatal(err)
		}
		if _, err := migrateScratch(mA, r, ct1, sc); err != nil && !errors.Is(err, ErrTierFull) {
			t.Fatal(err)
		}
	}
	if sc.Buffers() > high+RegionPages {
		t.Fatalf("arena grew from %d to %d buffers on identical work", high, sc.Buffers())
	}
	// Nil arena stays valid (global pool fallback).
	var nilSC *MigrationScratch
	if _, err := migrateScratch(mB, 0, DRAMTier, nilSC); err != nil {
		t.Fatal(err)
	}
	if nilSC.Buffers() != 0 {
		t.Fatal("nil arena must report 0 buffers")
	}
}

// TestCommitRegionMigrationConsumed: committing a prepared region a
// second time is a no-op — zero result, nil error, nothing moved.
func TestCommitRegionMigrationConsumed(t *testing.T) {
	m := testManager(t, 2*RegionPages)
	pr, err := m.PrepareRegionMigration(0, TierID(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CommitRegionMigration(pr); err != nil {
		t.Fatal(err)
	}
	before := m.TierPages()
	if mr, err := m.CommitRegionMigration(pr); err != nil || mr != (MigrationResult{}) {
		t.Fatalf("consumed CommitRegionMigration = %+v, %v; want zero, nil", mr, err)
	}
	if !reflect.DeepEqual(m.TierPages(), before) {
		t.Fatalf("second commit changed residency: %v -> %v", before, m.TierPages())
	}
}

// TestCommitRegionMigrationWrongManager: committing a region prepared on
// another manager errors, touches neither manager, and consumes the
// prepared region.
func TestCommitRegionMigrationWrongManager(t *testing.T) {
	m1 := testManager(t, 2*RegionPages)
	m2 := testManager(t, 2*RegionPages)
	pr, err := m1.PrepareRegionMigration(0, TierID(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.CommitRegionMigration(pr); err == nil {
		t.Fatal("cross-manager CommitRegionMigration succeeded")
	}
	if mr, err := m1.CommitRegionMigration(pr); err != nil || mr != (MigrationResult{}) {
		t.Fatalf("consumed region after cross-manager error: got %+v, %v", mr, err)
	}
	if m1.TierPages()[DRAMTier] != 2*RegionPages || m2.TierPages()[DRAMTier] != 2*RegionPages {
		t.Fatal("a failed cross-manager commit moved pages")
	}
}

// TestCommitRePreparesStalePage: a page rewritten between prepare and
// commit keeps its tier, but its prepared bytes are stale. The commit
// must re-prepare it so the compressed copy holds the new version.
func TestCommitRePreparesStalePage(t *testing.T) {
	m := testManager(t, RegionPages)
	pr, err := m.PrepareRegionMigration(0, TierID(2))
	if err != nil {
		t.Fatal(err)
	}
	for p := PageID(0); p < 8; p++ {
		if _, err := m.Access(p, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.CommitRegionMigration(pr); err != nil {
		t.Fatal(err)
	}
	if checkPlacement(t, m, "after commit") == 0 {
		t.Fatal("nothing was compressed; the stale-prepare check is vacuous")
	}
}
