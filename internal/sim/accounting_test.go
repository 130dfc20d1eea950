package sim

import (
	"fmt"
	"math"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// TestWindowAccountingInvariants is the window-end accounting oracle: after
// every Step of an AM-TCO run, the window record must agree with the
// placement state it claims to describe.
//
//   - Σ TierPages equals the manager's NumPages (no page lost or counted
//     twice by a migration, fallback or fault).
//   - Each compressed tier's TierPages equals the objects its pool holds
//     (ztier.Stats.Pages), and its TierBytes equals the pool footprint
//     (ztier.Stats.PoolBytes).
//   - Each byte-addressable tier's TierBytes is its pages × PageSize.
//   - rec.TCO equals Eq. 10 recomputed from that raw residency:
//     Σₜ bytesₜ / 2³⁰ × CostPerGBₜ.
//   - The window's latency histogram, overall and summed over serving
//     tiers, counts exactly the accesses the workload issued.
//
// It runs a rotating-hot-set (masim) and a Memcached/YCSB workload over
// DRAM plus the five-tier compressed spectrum, so CT→CT moves occur, at
// one and two push threads, so concurrent prepares feed the commits it
// checks.
func TestWindowAccountingInvariants(t *testing.T) {
	workloads := []func() workload.Workload{
		func() workload.Workload { return workload.DefaultMasim(3*mem.RegionPages, 8000, 1) },
		func() workload.Workload { return smallKV(t) },
	}
	for _, mk := range workloads {
		for _, pt := range []int{1, 2} {
			wl := mk()
			t.Run(fmt.Sprintf("%s/PT=%d", wl.Name(), pt), func(t *testing.T) {
				checkWindowAccounting(t, wl, pt)
			})
		}
	}
}

// countingWorkload counts the accesses its workload issues.
type countingWorkload struct {
	workload.Workload
	accesses int64
}

func (c *countingWorkload) NextOp(buf []workload.Access) []workload.Access {
	n := len(buf)
	buf = c.Workload.NextOp(buf)
	c.accesses += int64(len(buf) - n)
	return buf
}

func checkWindowAccounting(t *testing.T, inner workload.Workload, pushThreads int) {
	wl := &countingWorkload{Workload: inner}
	m, err := mem.NewManager(mem.Config{
		NumPages:        wl.NumPages(),
		Content:         corpus.NewGenerator(wl.Content(), 99),
		CompressedTiers: ztier.SpectrumSet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStepper(Config{
		Manager:      m,
		Workload:     wl,
		Model:        &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"},
		OpsPerWindow: 4000,
		SampleRate:   Int(20),
		PushThreads:  Int(pushThreads),
	})
	if err != nil {
		t.Fatal(err)
	}
	tiers := m.Tiers()
	compressedPages := int64(0)
	for w := 1; w <= 6; w++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		rec := s.Result().Windows[w-1]
		if len(rec.TierPages) != len(tiers) || len(rec.TierBytes) != len(tiers) {
			t.Fatalf("window %d: %d page and %d byte columns for %d tiers",
				w, len(rec.TierPages), len(rec.TierBytes), len(tiers))
		}
		var sum int64
		var wantTCO float64
		for _, ti := range tiers {
			id := ti.ID
			sum += rec.TierPages[id]
			bytes := rec.TierPages[id] * mem.PageSize
			if ti.Compressed {
				st, err := m.CompressedTierStats(id)
				if err != nil {
					t.Fatal(err)
				}
				if rec.TierPages[id] != int64(st.Pages) {
					t.Fatalf("window %d tier %s: TierPages %d, pool holds %d pages",
						w, ti.Name, rec.TierPages[id], st.Pages)
				}
				bytes = st.PoolBytes()
				compressedPages += rec.TierPages[id]
			}
			if rec.TierBytes[id] != bytes {
				t.Fatalf("window %d tier %s: TierBytes %d, raw footprint %d",
					w, ti.Name, rec.TierBytes[id], bytes)
			}
			wantTCO += float64(bytes) / (1 << 30) * ti.CostPerGB
		}
		if sum != m.NumPages() {
			t.Fatalf("window %d: tier pages sum to %d, want %d", w, sum, m.NumPages())
		}
		if math.Abs(rec.TCO-wantTCO) > 1e-12*wantTCO {
			t.Fatalf("window %d: TCO %v, Eq. 10 from raw residency gives %v", w, rec.TCO, wantTCO)
		}
		var tierCount int64
		for _, ls := range rec.TierLatency {
			tierCount += ls.Count
		}
		if rec.Latency.Count != wl.accesses || tierCount != wl.accesses {
			t.Fatalf("window %d: latency histogram counts %d (per tier %d), workload issued %d accesses",
				w, rec.Latency.Count, tierCount, wl.accesses)
		}
		wl.accesses = 0
	}
	if compressedPages == 0 {
		t.Fatal("no window placed a page in a compressed tier; the oracle is vacuous")
	}
}
