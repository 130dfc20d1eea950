package zpool

import (
	"bytes"
	"testing"
)

// The tests in this file pin the handle-generation encoding: a handle
// freed and then recycled — whether the whole page/location slot is
// reused or just the buddy slot on a still-live page — must report
// ErrInvalidHandle from Load/Size/Free instead of silently aliasing the
// slot's new occupant. All of them fail against the historical
// generation-free encoding, where the stale and fresh handles were
// bit-identical.

// assertStale checks that h is dead on p while fresh still round-trips.
func assertStale(t *testing.T, p Pool, h Handle, fresh Handle, want []byte) {
	t.Helper()
	if _, err := p.Load(h, nil); err != ErrInvalidHandle {
		t.Errorf("%s: Load(stale) = %v, want ErrInvalidHandle", p.Name(), err)
	}
	if _, err := p.Size(h); err != ErrInvalidHandle {
		t.Errorf("%s: Size(stale) = %v, want ErrInvalidHandle", p.Name(), err)
	}
	if err := p.Free(h); err != ErrInvalidHandle {
		t.Errorf("%s: Free(stale) = %v, want ErrInvalidHandle", p.Name(), err)
	}
	got, err := p.Load(fresh, nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("%s: fresh handle broken after stale probes: %v", p.Name(), err)
	}
}

// TestStaleHandleAfterSlotRecycle is the generic ABA regression: free an
// object, store a same-sized one (which recycles the freed slot in every
// pool), and probe the stale handle. Without generation bits the stale
// handle decodes to the recycled slot and reads the NEW object's bytes.
func TestStaleHandleAfterSlotRecycle(t *testing.T) {
	for _, p := range pools(t) {
		old := bytes.Repeat([]byte{0xAA}, 100)
		hOld, err := p.Store(old)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Free(hOld); err != nil {
			t.Fatal(err)
		}
		fresh := bytes.Repeat([]byte{0xBB}, 100)
		hNew, err := p.Store(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if hOld == hNew {
			t.Fatalf("%s: recycled handle is bit-identical to the freed one — no generation tag", p.Name())
		}
		assertStale(t, p, hOld, hNew, fresh)
	}
}

// TestStaleHandleSlotReuseOnLivePage pins the per-slot (not per-page)
// generation requirement for zbud and z3fold: a buddy slot freed while
// its page stays live (another buddy still resident) is refilled by a
// later first-fit Store without the page ever being recycled, so a
// page-level generation bumped only on whole-page recycle would miss it.
func TestStaleHandleSlotReuseOnLivePage(t *testing.T) {
	for _, name := range []string{"zbud", "z3fold"} {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		// Two small buddies share the first page; keep holds the page live.
		victim := bytes.Repeat([]byte{1}, 80)
		hVictim, err := p.Store(victim)
		if err != nil {
			t.Fatal(err)
		}
		keep := bytes.Repeat([]byte{2}, 80)
		hKeep, err := p.Store(keep)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Free(hVictim); err != nil {
			t.Fatal(err)
		}
		if p.Stats().PoolPages != 1 {
			t.Fatalf("%s: page should stay live with one buddy resident", name)
		}
		// Same-size store first-fits back into the freed slot on the live page.
		refill := bytes.Repeat([]byte{3}, 80)
		hRefill, err := p.Store(refill)
		if err != nil {
			t.Fatal(err)
		}
		if p.Stats().PoolPages != 1 {
			t.Fatalf("%s: refill should reuse the live page, got %d pages", name, p.Stats().PoolPages)
		}
		if hVictim == hRefill {
			t.Fatalf("%s: stale handle aliases the refilled slot", name)
		}
		assertStale(t, p, hVictim, hRefill, refill)
		if got, err := p.Load(hKeep, nil); err != nil || !bytes.Equal(got, keep) {
			t.Fatalf("%s: surviving buddy corrupted: %v", name, err)
		}
	}
}

// TestStaleHandleAfterCompaction: zsmalloc compaction relocates objects
// but must keep their handles live (the location table is indirect) while
// handles freed before the pass stay dead after their table entries are
// recycled by post-compaction stores.
func TestStaleHandleAfterCompaction(t *testing.T) {
	z := NewZsmalloc()
	var live []Handle
	var data [][]byte
	for i := 0; i < 64; i++ {
		d := bytes.Repeat([]byte{byte(i + 1)}, 500)
		h, err := z.Store(d)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, h)
		data = append(data, d)
	}
	// Free alternating objects to fragment the zspages, then compact.
	var stale []Handle
	for i := 0; i < len(live); i += 2 {
		if err := z.Free(live[i]); err != nil {
			t.Fatal(err)
		}
		stale = append(stale, live[i])
	}
	if z.CompactPartial(0).PagesReclaimed == 0 {
		t.Fatal("compaction reclaimed nothing; fragmentation setup is broken")
	}
	for i := 1; i < len(live); i += 2 {
		got, err := z.Load(live[i], nil)
		if err != nil || !bytes.Equal(got, data[i]) {
			t.Fatalf("live handle %d broken after compaction: %v", i, err)
		}
	}
	// New stores recycle the freed location-table entries; the stale
	// handles must stay dead.
	for range stale {
		if _, err := z.Store(bytes.Repeat([]byte{0xEE}, 500)); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range stale {
		if _, err := z.Load(h, nil); err != ErrInvalidHandle {
			t.Fatalf("stale handle resolved after table-entry recycling: %v", err)
		}
	}
}

// TestZsmallocCompactDonorFallback pins the early-give-up fix in
// compactClass: donors are tried in sparseness order until one whose
// objects fit elsewhere is found, instead of aborting the class the
// moment the single sparsest donor does not fit.
//
// Under the current Store/Free paths every zspage of a class has
// used + len(free) == objsPer, which makes the historical "does the
// sparsest donor fit" check donor-independent — so the layout below is
// constructed directly: zspage A has plenty of free slots, zspage B has
// most of its free slots unavailable (the kernel-analogue is slots held
// by mapped/pinned objects that zs_compact must skip). The compactor must
// not bake the uniform-geometry invariant in: with it violated, the old
// code gives up on the class (sparsest donor A cannot drain into B's one
// free slot) even though draining B into A reclaims a page.
func TestZsmallocCompactDonorFallback(t *testing.T) {
	build := func() (*Zsmalloc, *zsClass, []Handle, [][]byte) {
		z := NewZsmalloc()
		ci := zsClassFor(512)
		c := z.classes[ci]
		if c.pagesPer != 1 || c.objsPer != 8 {
			t.Fatalf("class geometry changed: pagesPer=%d objsPer=%d", c.pagesPer, c.objsPer)
		}
		// Fill two zspages completely, then free them into shape.
		var hs [][]Handle
		for pg := 0; pg < 2; pg++ {
			var page []Handle
			for s := 0; s < c.objsPer; s++ {
				h, err := z.Store(bytes.Repeat([]byte{byte(16*pg + s + 1)}, 500))
				if err != nil {
					t.Fatal(err)
				}
				page = append(page, h)
			}
			hs = append(hs, page)
		}
		// A: used=2, free=6.
		for s := 2; s < c.objsPer; s++ {
			if err := z.Free(hs[0][s]); err != nil {
				t.Fatal(err)
			}
		}
		// B: used=3, free=5 — then pin 4 of B's free slots (drop them from
		// the free list, modeling unmovable residents).
		for s := 3; s < c.objsPer; s++ {
			if err := z.Free(hs[1][s]); err != nil {
				t.Fatal(err)
			}
		}
		b := c.zspages[1]
		b.free = b.free[:1]
		keep := []Handle{hs[0][0], hs[0][1], hs[1][0], hs[1][1], hs[1][2]}
		var want [][]byte
		for _, h := range keep {
			d, err := z.Load(h, nil)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, d)
		}
		return z, c, keep, want
	}

	z, c, keep, want := build()
	// Sanity: A (used 2) is the sparsest donor and must NOT fit — free
	// slots elsewhere (B's 1) < A's 2 objects. B (used 3) must fit into
	// A's 6 free slots. The old single-donor check gave up here.
	a := c.zspages[0]
	if a.used != 2 || len(a.free) != 6 {
		t.Fatalf("layout: A used=%d free=%d, want 2/6", a.used, len(a.free))
	}
	res := z.CompactPartial(0)
	if res.PagesReclaimed != c.pagesPer {
		t.Fatalf("donor fallback reclaimed %d pages, want %d (old code gives up and reclaims 0)",
			res.PagesReclaimed, c.pagesPer)
	}
	if res.ObjectsMoved != 3 || res.BytesMoved != 3*500 {
		t.Fatalf("moved %d objects / %d bytes, want 3 / 1500 (drain B, not A)",
			res.ObjectsMoved, res.BytesMoved)
	}
	for i, h := range keep {
		got, err := z.Load(h, nil)
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("object %d corrupted by fallback compaction: %v", i, err)
		}
	}
}

// TestZsmallocCompactPartialReconciles: a sequence of bounded
// CompactPartial calls must converge to exactly what one unbounded sweep
// does — same pages reclaimed, same objects and bytes moved, same final
// stats — with each bounded call honoring its budget (overshoot of at
// most one zspage) and the cursor carrying the remainder across calls.
func TestZsmallocCompactPartialReconciles(t *testing.T) {
	churn := func() *Zsmalloc {
		z := NewZsmalloc()
		// Fragment several classes: fill zspages, then free most of each.
		for _, size := range []int{200, 500, 1000, 2000} {
			var hs []Handle
			for i := 0; i < 48; i++ {
				h, err := z.Store(bytes.Repeat([]byte{byte(i + 1)}, size))
				if err != nil {
					t.Fatal(err)
				}
				hs = append(hs, h)
			}
			for i, h := range hs {
				if i%4 != 0 {
					if err := z.Free(h); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return z
	}

	full := churn()
	want := full.CompactPartial(0)
	if want.PagesReclaimed == 0 || want.ObjectsMoved == 0 {
		t.Fatal("unbounded sweep did no work; churn setup is broken")
	}

	inc := churn()
	var got CompactResult
	calls := 0
	for {
		r := inc.CompactPartial(2)
		if r.PagesReclaimed == 0 {
			break
		}
		calls++
		got.Add(r)
		if calls > 10000 {
			t.Fatal("bounded compaction does not terminate")
		}
	}
	if got != want {
		t.Fatalf("incremental total %+v != unbounded sweep %+v", got, want)
	}
	if calls < 2 {
		t.Fatalf("budget of 2 pages finished in %d call(s); cursor never exercised", calls)
	}
	fs, is := full.Stats(), inc.Stats()
	if fs != is {
		t.Fatalf("final stats diverge: full %+v incremental %+v", fs, is)
	}
}

// TestCompactPartialNoopPools: zbud and z3fold have no compactor; bounded
// and unbounded calls must report zero work and leave stats untouched.
func TestCompactPartialNoopPools(t *testing.T) {
	for _, name := range []string{"zbud", "z3fold"} {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Store(bytes.Repeat([]byte{7}, 300)); err != nil {
			t.Fatal(err)
		}
		before := p.Stats()
		for _, budget := range []int{0, 1, 1 << 20} {
			if r := p.CompactPartial(budget); r != (CompactResult{}) {
				t.Fatalf("%s: CompactPartial(%d) = %+v, want zero work", name, budget, r)
			}
		}
		if p.Stats() != before {
			t.Fatalf("%s: no-op compaction changed stats", name)
		}
	}
}
