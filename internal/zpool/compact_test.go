package zpool

import (
	"bytes"
	"testing"
	"testing/quick"

	"tierscape/internal/stats"
)

func TestZsmallocCompactReclaimsPages(t *testing.T) {
	z := NewZsmalloc()
	// Fill many zspages of one class, then free most objects so every
	// zspage is sparse.
	const objSize = 1000
	var hs []Handle
	for i := 0; i < 400; i++ {
		h, err := z.Store(make([]byte, objSize))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	before := z.Stats().PoolPages
	// Free 3 of every 4 objects.
	var kept []Handle
	for i, h := range hs {
		if i%4 == 0 {
			kept = append(kept, h)
			continue
		}
		if err := z.Free(h); err != nil {
			t.Fatal(err)
		}
	}
	afterFree := z.Stats().PoolPages
	reclaimed := z.CompactPartial(0).PagesReclaimed
	afterCompact := z.Stats().PoolPages
	if reclaimed == 0 {
		t.Fatalf("compaction reclaimed nothing (pages: %d -> %d -> %d)",
			before, afterFree, afterCompact)
	}
	if afterCompact != afterFree-reclaimed {
		t.Fatalf("stats inconsistent: %d - %d != %d", afterFree, reclaimed, afterCompact)
	}
	// All surviving handles must still load the right bytes.
	want := make([]byte, objSize)
	for _, h := range kept {
		got, err := z.Load(h, nil)
		if err != nil {
			t.Fatalf("handle invalid after compaction: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("object corrupted by compaction")
		}
	}
	if got := z.Stats().Objects; got != len(kept) {
		t.Fatalf("Objects = %d, want %d", got, len(kept))
	}
}

func TestZsmallocCompactIdempotentWhenDense(t *testing.T) {
	z := NewZsmalloc()
	for i := 0; i < 100; i++ {
		if _, err := z.Store(make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if got := z.CompactPartial(0).PagesReclaimed; got != 0 {
		t.Fatalf("compacting a dense pool reclaimed %d pages", got)
	}
}

func TestZbudZ3foldCompactNoop(t *testing.T) {
	for _, name := range []string{"zbud", "z3fold"} {
		p, _ := New(name)
		if _, err := p.Store(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if got := p.CompactPartial(0); got != (CompactResult{}) {
			t.Fatalf("%s: CompactPartial(0) = %+v, want zero", name, got)
		}
	}
}

func TestZsmallocCompactChurnProperty(t *testing.T) {
	// Property: after arbitrary churn + compaction, every live object's
	// content survives, stats balance, and density never decreases.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		z := NewZsmalloc()
		type obj struct {
			h    Handle
			data []byte
		}
		var live []obj
		for op := 0; op < 400; op++ {
			switch {
			case len(live) > 0 && rng.Float64() < 0.45:
				i := rng.Intn(len(live))
				if err := z.Free(live[i].h); err != nil {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case rng.Float64() < 0.05:
				z.CompactPartial(0)
			default:
				size := 1 + rng.Intn(PageSize)
				data := make([]byte, size)
				for j := range data {
					data[j] = byte(rng.Uint32())
				}
				h, err := z.Store(data)
				if err != nil {
					return false
				}
				live = append(live, obj{h, data})
			}
		}
		denBefore := z.Stats().Density()
		z.CompactPartial(0)
		denAfter := z.Stats().Density()
		if len(live) > 0 && denAfter+1e-9 < denBefore {
			return false
		}
		for _, o := range live {
			got, err := z.Load(o.h, nil)
			if err != nil || !bytes.Equal(got, o.data) {
				return false
			}
		}
		return z.Stats().Objects == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactThenReuse(t *testing.T) {
	// Reclaimed zspages must be reusable for subsequent stores.
	z := NewZsmalloc()
	var hs []Handle
	for i := 0; i < 200; i++ {
		h, _ := z.Store(make([]byte, 800))
		hs = append(hs, h)
	}
	for i, h := range hs {
		if i%2 == 0 {
			_ = z.Free(h)
		}
	}
	z.CompactPartial(0)
	peak := z.Stats().PoolPages
	for i := 0; i < 100; i++ {
		if _, err := z.Store(make([]byte, 800)); err != nil {
			t.Fatal(err)
		}
	}
	if grown := z.Stats().PoolPages - peak; grown > 25 {
		t.Fatalf("pool grew %d pages after compaction freed space", grown)
	}
}
