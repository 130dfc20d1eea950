package zpool

import "sort"

// zsmalloc: size-class allocator. Objects are rounded up to one of 128
// size classes (32-byte spacing). Each class carves its objects out of
// "zspages" — groups of 1..4 contiguous pool pages sized to minimize
// per-class waste — so compressed objects pack densely across page
// boundaries. This is the best-density / highest-overhead pool manager,
// matching the kernel's trade-off.
//
// Like the kernel's, this zsmalloc supports compaction (zs_compact):
// objects migrate out of sparse zspages into fuller ones so empty zspages
// can be returned. Handles are therefore indirect — an index into a
// location table — so compaction never invalidates a caller's handle,
// exactly the role of the kernel's handle allocation.

const (
	zsClassSpacing = 32
	zsNumClasses   = PageSize / zsClassSpacing // 128 classes: 32..4096
	zsMaxZspageLen = 4                         // pages per zspage, kernel's limit
)

type zsZspage struct {
	data  []byte
	free  []int // free slot indexes
	used  int
	live  bool
	sizes []int // stored byte size per slot (0 = free)
	owner []int // handle-table index per slot (-1 = free)
}

type zsClass struct {
	size      int // object slot size in bytes
	pagesPer  int // pool pages per zspage
	objsPer   int // object slots per zspage
	zspages   []*zsZspage
	partial   []int // indexes of zspages with free slots
	freeSlots []int // recycled zspage indexes
}

// zsLoc is a live object's location; slot < 0 marks a free table entry.
// gen is the entry's generation: it is bumped every time the entry is
// freed and survives recycling, so a handle minted for a previous
// occupant of this entry can never resolve to the current one.
type zsLoc struct {
	class, zspage, slot int32
	gen                 uint32
}

// Zsmalloc is the size-class based pool manager.
type Zsmalloc struct {
	classes  [zsNumClasses]*zsClass
	locs     []zsLoc
	freeLocs []int
	stats    Stats
	// compactCursor is the class index where the next bounded
	// CompactPartial resumes after a budget cut.
	compactCursor int
	// donorScratch is reused by pickDonor's sparseness sort.
	donorScratch []int
}

// zsHandle packs a location-table index and its generation.
func zsHandle(li int, gen uint32) Handle {
	return Handle(uint64(gen)<<32 | uint64(uint32(li)))
}

// zsDecode splits a handle into location-table index and generation.
func zsDecode(h Handle) (li int, gen uint32) {
	return int(uint32(h)), uint32(h >> 32)
}

// NewZsmalloc returns an empty zsmalloc pool.
func NewZsmalloc() *Zsmalloc {
	z := &Zsmalloc{}
	for i := 0; i < zsNumClasses; i++ {
		size := (i + 1) * zsClassSpacing
		// Choose the zspage length (1..4 pages) minimizing waste per page.
		bestLen, bestWaste := 1, PageSize%size
		for l := 2; l <= zsMaxZspageLen; l++ {
			if w := (l * PageSize) % size; w*bestLen < bestWaste*l {
				bestLen, bestWaste = l, w
			}
		}
		z.classes[i] = &zsClass{
			size:     size,
			pagesPer: bestLen,
			objsPer:  bestLen * PageSize / size,
		}
	}
	return z
}

// Name implements Pool.
func (*Zsmalloc) Name() string { return "zsmalloc" }

func zsClassFor(size int) int {
	return (size+zsClassSpacing-1)/zsClassSpacing - 1
}

func (z *Zsmalloc) allocLoc(l zsLoc) int {
	if n := len(z.freeLocs); n > 0 {
		idx := z.freeLocs[n-1]
		z.freeLocs = z.freeLocs[:n-1]
		// Recycled entries keep their generation (bumped at free time), so
		// handles minted for previous occupants stay invalid.
		l.gen = z.locs[idx].gen
		z.locs[idx] = l
		return idx
	}
	z.locs = append(z.locs, l)
	return len(z.locs) - 1
}

// Store implements Pool.
func (z *Zsmalloc) Store(data []byte) (Handle, error) {
	size := len(data)
	if size == 0 || size > PageSize {
		return 0, ErrTooLarge
	}
	ci := zsClassFor(size)
	c := z.classes[ci]

	var zi int
	if len(c.partial) > 0 {
		zi = c.partial[len(c.partial)-1]
	} else {
		zi = z.allocZspage(c)
		c.partial = append(c.partial, zi)
	}
	zp := c.zspages[zi]
	slot := zp.free[len(zp.free)-1]
	zp.free = zp.free[:len(zp.free)-1]
	zp.used++
	zp.sizes[slot] = size
	copy(zp.data[slot*c.size:], data)
	if len(zp.free) == 0 {
		// Remove from partial list (it is the tail by construction).
		c.partial = c.partial[:len(c.partial)-1]
	}
	loc := z.allocLoc(zsLoc{class: int32(ci), zspage: int32(zi), slot: int32(slot)})
	zp.owner[slot] = loc
	z.stats.Objects++
	z.stats.StoredBytes += int64(size)
	z.stats.Stores++
	return zsHandle(loc, z.locs[loc].gen), nil
}

func (z *Zsmalloc) allocZspage(c *zsClass) int {
	var zi int
	if n := len(c.freeSlots); n > 0 {
		zi = c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
	} else {
		c.zspages = append(c.zspages, &zsZspage{})
		zi = len(c.zspages) - 1
	}
	zp := c.zspages[zi]
	if zp.data == nil {
		zp.data = make([]byte, c.pagesPer*PageSize)
		zp.sizes = make([]int, c.objsPer)
		zp.owner = make([]int, c.objsPer)
	}
	zp.live = true
	zp.used = 0
	zp.free = zp.free[:0]
	for s := c.objsPer - 1; s >= 0; s-- {
		zp.free = append(zp.free, s)
		zp.sizes[s] = 0
		zp.owner[s] = -1
	}
	z.stats.PoolPages += c.pagesPer
	return zi
}

func (z *Zsmalloc) loc(h Handle) (*zsClass, *zsZspage, zsLoc, error) {
	li, gen := zsDecode(h)
	if li >= len(z.locs) {
		return nil, nil, zsLoc{}, ErrInvalidHandle
	}
	l := z.locs[li]
	if l.slot < 0 || l.gen != gen {
		return nil, nil, zsLoc{}, ErrInvalidHandle
	}
	c := z.classes[l.class]
	zp := c.zspages[l.zspage]
	if !zp.live || zp.sizes[l.slot] == 0 {
		return nil, nil, zsLoc{}, ErrInvalidHandle
	}
	return c, zp, l, nil
}

// Load implements Pool.
func (z *Zsmalloc) Load(h Handle, dst []byte) ([]byte, error) {
	c, zp, l, err := z.loc(h)
	if err != nil {
		return dst, err
	}
	size := zp.sizes[l.slot]
	off := int(l.slot) * c.size
	return append(dst, zp.data[off:off+size]...), nil
}

// Size implements Pool.
func (z *Zsmalloc) Size(h Handle) (int, error) {
	_, zp, l, err := z.loc(h)
	if err != nil {
		return 0, err
	}
	return zp.sizes[l.slot], nil
}

// Free implements Pool.
func (z *Zsmalloc) Free(h Handle) error {
	c, zp, l, err := z.loc(h)
	if err != nil {
		return err
	}
	size := zp.sizes[l.slot]
	wasFull := len(zp.free) == 0
	zp.sizes[l.slot] = 0
	zp.owner[l.slot] = -1
	zp.free = append(zp.free, int(l.slot))
	zp.used--
	li, _ := zsDecode(h)
	// Bump the generation so this handle (and any copy of it) is dead even
	// after the entry is recycled for a new object.
	z.locs[li] = zsLoc{slot: -1, gen: l.gen + 1}
	z.freeLocs = append(z.freeLocs, li)
	z.stats.Objects--
	z.stats.StoredBytes -= int64(size)
	z.stats.Frees++

	zi := int(l.zspage)
	if zp.used == 0 {
		// Release the zspage's pages; keep the buffer for reuse.
		zp.live = false
		z.stats.PoolPages -= c.pagesPer
		removeFromPartial(c, zi)
		c.freeSlots = append(c.freeSlots, zi)
		return nil
	}
	if wasFull {
		c.partial = append(c.partial, zi)
	}
	return nil
}

func removeFromPartial(c *zsClass, zi int) {
	for i, v := range c.partial {
		if v == zi {
			c.partial[i] = c.partial[len(c.partial)-1]
			c.partial = c.partial[:len(c.partial)-1]
			return
		}
	}
}

// CompactPartial implements Pool: per class, objects migrate from the
// sparsest partial zspages into fuller ones until either the donor drains
// (its pages are reclaimed) or no free slots remain elsewhere — the
// kernel's zs_compact. Handles stay valid across compaction. A bounded call (budgetPages > 0) starts
// at the class the previous bounded call stopped in and wraps around all
// classes, stopping once at least budgetPages pool pages have been
// reclaimed (overshooting by at most one zspage); the cursor then parks on
// the unfinished class. Classes are independent — objects only ever move
// within their own class — so the visiting order cannot change the final
// layout, and a sequence of bounded calls converges to exactly the state
// one unbounded sweep produces.
func (z *Zsmalloc) CompactPartial(budgetPages int) CompactResult {
	var res CompactResult
	start := 0
	if budgetPages > 0 {
		start = z.compactCursor
	}
	for i := 0; i < zsNumClasses; i++ {
		ci := (start + i) % zsNumClasses
		if !z.compactClass(z.classes[ci], budgetPages, &res) {
			z.compactCursor = ci
			return res
		}
	}
	return res
}

// compactClass drains sparse zspages of c into fuller ones, accumulating
// into res. It reports false when it stopped because res.PagesReclaimed
// reached budgetPages (> 0) with donors still pending, true when the class
// has no more reclaimable zspages.
func (z *Zsmalloc) compactClass(c *zsClass, budgetPages int, res *CompactResult) bool {
	for len(c.partial) >= 2 {
		if budgetPages > 0 && res.PagesReclaimed >= budgetPages {
			return false
		}
		donorIdx := z.pickDonor(c)
		if donorIdx < 0 {
			return true // no donor's objects fit elsewhere
		}
		donor := c.zspages[donorIdx]
		// Move every donor object into some other partial zspage.
		for slot := 0; slot < c.objsPer && donor.used > 0; slot++ {
			if donor.sizes[slot] == 0 {
				continue
			}
			dstZi := -1
			for _, zi := range c.partial {
				if zi != donorIdx && len(c.zspages[zi].free) > 0 {
					dstZi = zi
					break
				}
			}
			if dstZi < 0 {
				return true // should not happen; pickDonor guarantees room
			}
			dst := c.zspages[dstZi]
			dslot := dst.free[len(dst.free)-1]
			dst.free = dst.free[:len(dst.free)-1]
			size := donor.sizes[slot]
			copy(dst.data[dslot*c.size:], donor.data[slot*c.size:slot*c.size+size])
			dst.sizes[dslot] = size
			dst.used++
			owner := donor.owner[slot]
			dst.owner[dslot] = owner
			z.locs[owner] = zsLoc{class: z.locs[owner].class, zspage: int32(dstZi), slot: int32(dslot), gen: z.locs[owner].gen}
			donor.sizes[slot] = 0
			donor.owner[slot] = -1
			donor.used--
			res.ObjectsMoved++
			res.BytesMoved += int64(size)
			if len(dst.free) == 0 {
				removeFromPartial(c, dstZi)
			}
		}
		// Donor drained: reclaim its pages.
		donor.live = false
		z.stats.PoolPages -= c.pagesPer
		res.PagesReclaimed += c.pagesPer
		removeFromPartial(c, donorIdx)
		c.freeSlots = append(c.freeSlots, donorIdx)
	}
	return true
}

// pickDonor returns the partial zspage whose objects should migrate out,
// or -1 when no donor can be fully drained. Donors are tried in sparseness
// order (fewest live objects first, partial-list order breaking ties, same
// tie-break as the historical single-candidate scan): the sparsest zspage
// that fits is the cheapest page reclaim, but a sparser donor failing to
// fit must not abort the class while a denser one still fits — e.g. when
// zspage geometry varies, the sparsest donor can hold many free slots that
// vanish with it, while a fuller donor leaves those slots available as
// destination space.
func (z *Zsmalloc) pickDonor(c *zsClass) int {
	totalFree := 0
	for _, zi := range c.partial {
		totalFree += len(c.zspages[zi].free)
	}
	cand := append(z.donorScratch[:0], c.partial...)
	sort.SliceStable(cand, func(i, j int) bool {
		return c.zspages[cand[i]].used < c.zspages[cand[j]].used
	})
	z.donorScratch = cand[:0]
	for _, zi := range cand {
		donor := c.zspages[zi]
		// Free slots elsewhere must fit all of the donor's objects.
		if totalFree-len(donor.free) >= donor.used {
			return zi
		}
	}
	return -1
}

// Stats implements Pool.
func (z *Zsmalloc) Stats() Stats { return z.stats }
