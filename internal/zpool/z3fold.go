package zpool

// z3fold: each pool page holds at most three buddies — first (from the page
// start), last (from the page end), and middle (at a fixed chunk offset
// chosen at store time). Like zbud, free space is chunked (64 B) and pages
// with spare room sit on lists indexed by their largest contiguous free
// run, giving ~66% maximum space savings at slightly higher bookkeeping
// cost than zbud.

const z3ChunkSize = 64
const z3Chunks = PageSize / z3ChunkSize

type z3Slot int

const (
	z3First z3Slot = iota
	z3Middle
	z3Last
)

type z3Page struct {
	data        [PageSize]byte
	sizes       [3]int // bytes per slot, 0 = free
	middleStart int    // chunk index of middle slot (valid when sizes[z3Middle] > 0)
	// gens holds one generation per slot, bumped on Free of that slot; a
	// slot can be refilled while the page stays live, so the tag is per
	// slot and survives whole-page recycling (see zbudPage.gens).
	gens [3]uint32

	prev, next int
	listIdx    int
	live       bool
}

// chunk extents per slot: first [0,c1), middle [m0,m0+cm), last [64-c3,64)
func (p *z3Page) firstChunks() int  { return chunksOf3(p.sizes[z3First]) }
func (p *z3Page) middleChunks() int { return chunksOf3(p.sizes[z3Middle]) }
func (p *z3Page) lastChunks() int   { return chunksOf3(p.sizes[z3Last]) }

func chunksOf3(size int) int { return (size + z3ChunkSize - 1) / z3ChunkSize }

// gaps returns the free contiguous chunk runs in layout order:
// gapA = between first and middle (or last/end if no middle),
// gapB = between middle and last (0 if no middle).
func (p *z3Page) gaps() (gapA, gapB int) {
	c1 := p.firstChunks()
	c3 := p.lastChunks()
	lastStart := z3Chunks - c3
	if p.sizes[z3Middle] == 0 {
		return lastStart - c1, 0
	}
	gapA = p.middleStart - c1
	gapB = lastStart - (p.middleStart + p.middleChunks())
	return gapA, gapB
}

func (p *z3Page) largestFree() int {
	a, b := p.gaps()
	if a > b {
		return a
	}
	return b
}

func (p *z3Page) numSlots() int {
	n := 0
	for _, s := range p.sizes {
		if s > 0 {
			n++
		}
	}
	return n
}

// Z3fold is the three-objects-per-page pool manager.
type Z3fold struct {
	pages     []*z3Page
	freePages []int
	lists     [z3Chunks + 1]int // head per largest-free-run, -1 = empty
	stats     Stats
}

// NewZ3fold returns an empty z3fold pool.
func NewZ3fold() *Z3fold {
	z := &Z3fold{}
	for i := range z.lists {
		z.lists[i] = -1
	}
	return z
}

// Name implements Pool.
func (*Z3fold) Name() string { return "z3fold" }

func z3Handle(pageIdx int, slot z3Slot, gen uint32) Handle {
	return Handle(uint64(gen)<<32 | uint64(uint32(pageIdx))<<2 | uint64(slot))
}

func z3Decode(h Handle) (pageIdx int, slot z3Slot, gen uint32) {
	return int(uint32(h) >> 2), z3Slot(h & 3), uint32(h >> 32)
}

func (z *Z3fold) listRemove(idx int) {
	p := z.pages[idx]
	if p.listIdx < 0 {
		return
	}
	if p.prev >= 0 {
		z.pages[p.prev].next = p.next
	} else {
		z.lists[p.listIdx] = p.next
	}
	if p.next >= 0 {
		z.pages[p.next].prev = p.prev
	}
	p.prev, p.next, p.listIdx = -1, -1, -1
}

func (z *Z3fold) listInsert(idx int) {
	p := z.pages[idx]
	p.prev, p.next, p.listIdx = -1, -1, -1
	if p.numSlots() == 0 || p.numSlots() == 3 {
		return
	}
	lf := p.largestFree()
	if lf <= 0 {
		return
	}
	head := z.lists[lf]
	p.listIdx = lf
	p.next = head
	if head >= 0 {
		z.pages[head].prev = idx
	}
	z.lists[lf] = idx
}

// place stores data into a free slot of p; the caller guarantees a
// contiguous run of at least chunksOf3(len(data)) chunks exists.
func (p *z3Page) place(data []byte) z3Slot {
	size := len(data)
	need := chunksOf3(size)
	c1 := p.firstChunks()
	c3 := p.lastChunks()
	lastStart := z3Chunks - c3
	gapA, gapB := p.gaps()

	// Prefer the edge slots (cheap lookup in the kernel), then middle.
	if p.sizes[z3First] == 0 && gapA >= need && p.middleOrLastStart() >= need {
		p.sizes[z3First] = size
		copy(p.data[:], data)
		return z3First
	}
	if p.sizes[z3Last] == 0 {
		// Free run before page end: gapB when middle present, else gapA.
		run := gapA
		if p.sizes[z3Middle] != 0 {
			run = gapB
		}
		if run >= need {
			p.sizes[z3Last] = size
			copy(p.data[PageSize-size:], data)
			return z3Last
		}
	}
	if p.sizes[z3Middle] == 0 {
		if gapA >= need {
			p.middleStart = c1
			p.sizes[z3Middle] = size
			copy(p.data[c1*z3ChunkSize:], data)
			return z3Middle
		}
		_ = lastStart
	}
	return -1
}

// middleOrLastStart returns the chunk index where the next occupied slot
// after "first" begins (middle if present, else last, else page end).
func (p *z3Page) middleOrLastStart() int {
	if p.sizes[z3Middle] != 0 {
		return p.middleStart
	}
	return z3Chunks - p.lastChunks()
}

// Store implements Pool.
func (z *Z3fold) Store(data []byte) (Handle, error) {
	size := len(data)
	if size == 0 || size > PageSize {
		return 0, ErrTooLarge
	}
	need := chunksOf3(size)

	for fc := need; fc <= z3Chunks; fc++ {
		idx := z.lists[fc]
		if idx < 0 {
			continue
		}
		p := z.pages[idx]
		z.listRemove(idx)
		slot := p.place(data)
		if slot < 0 {
			// Should not happen (list key is the largest free run), but
			// reinsert and fall through to a fresh page for robustness.
			z.listInsert(idx)
			continue
		}
		z.listInsert(idx)
		z.stats.Objects++
		z.stats.StoredBytes += int64(size)
		z.stats.Stores++
		return z3Handle(idx, slot, p.gens[slot]), nil
	}

	idx := z.allocPage()
	p := z.pages[idx]
	p.sizes[z3First] = size
	copy(p.data[:], data)
	z.listInsert(idx)
	z.stats.Objects++
	z.stats.StoredBytes += int64(size)
	z.stats.Stores++
	return z3Handle(idx, z3First, p.gens[z3First]), nil
}

func (z *Z3fold) allocPage() int {
	if n := len(z.freePages); n > 0 {
		idx := z.freePages[n-1]
		z.freePages = z.freePages[:n-1]
		p := z.pages[idx]
		// Reset the page but keep slot generations (see Zbud.allocPage).
		gens := p.gens
		*p = z3Page{prev: -1, next: -1, listIdx: -1, live: true}
		p.gens = gens
		z.stats.PoolPages++
		return idx
	}
	z.pages = append(z.pages, &z3Page{prev: -1, next: -1, listIdx: -1, live: true})
	z.stats.PoolPages++
	return len(z.pages) - 1
}

func (z *Z3fold) page(h Handle) (*z3Page, int, int, error) {
	idx, slot, gen := z3Decode(h)
	if idx >= len(z.pages) || slot > z3Last {
		return nil, 0, 0, ErrInvalidHandle
	}
	p := z.pages[idx]
	if !p.live || p.gens[slot] != gen {
		return nil, 0, 0, ErrInvalidHandle
	}
	size := p.sizes[slot]
	if size == 0 {
		return nil, 0, 0, ErrInvalidHandle
	}
	return p, idx, size, nil
}

// Load implements Pool.
func (z *Z3fold) Load(h Handle, dst []byte) ([]byte, error) {
	p, _, size, err := z.page(h)
	if err != nil {
		return dst, err
	}
	_, slot, _ := z3Decode(h)
	switch slot {
	case z3First:
		return append(dst, p.data[:size]...), nil
	case z3Middle:
		off := p.middleStart * z3ChunkSize
		return append(dst, p.data[off:off+size]...), nil
	default:
		return append(dst, p.data[PageSize-size:]...), nil
	}
}

// Size implements Pool.
func (z *Z3fold) Size(h Handle) (int, error) {
	_, _, size, err := z.page(h)
	return size, err
}

// Free implements Pool.
func (z *Z3fold) Free(h Handle) error {
	p, idx, size, err := z.page(h)
	if err != nil {
		return err
	}
	_, slot, _ := z3Decode(h)
	z.listRemove(idx)
	p.sizes[slot] = 0
	p.gens[slot]++
	z.stats.Objects--
	z.stats.StoredBytes -= int64(size)
	z.stats.Frees++
	if p.numSlots() == 0 {
		p.live = false
		z.freePages = append(z.freePages, idx)
		z.stats.PoolPages--
	} else {
		z.listInsert(idx)
	}
	return nil
}

// CompactPartial implements Pool: kept a no-op to match current kernels
// (z3fold's limited compaction was removed along with the allocator's
// deprecation).
func (z *Z3fold) CompactPartial(budgetPages int) CompactResult { return CompactResult{} }

// Stats implements Pool.
func (z *Z3fold) Stats() Stats { return z.stats }
