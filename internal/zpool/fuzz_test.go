package zpool

import (
	"bytes"
	"testing"
)

// FuzzPoolDifferential drives all three pool managers through the same
// fuzzer-chosen op stream (store / free / load / compact / bounded
// compact) and checks every observable against a map-based reference
// oracle: live handles always load their exact bytes, freed handles are
// permanently invalid (the generation-tag contract), and Stats stays
// balanced with the oracle's object count and byte total.
func FuzzPoolDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(bytes.Repeat([]byte{0x53, 0x03, 0xF7}, 40))
	f.Add([]byte{0, 10, 0, 20, 3, 0, 6, 0, 40, 3, 1, 7, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, name := range Managers() {
			p, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			type obj struct {
				h    Handle
				data []byte
			}
			var live []obj
			var stale []Handle
			seq := byte(0)
			r := 0
			next := func() byte {
				if r >= len(ops) {
					return 0
				}
				b := ops[r]
				r++
				return b
			}
			for r < len(ops) {
				switch op := next(); op % 8 {
				case 0, 1, 2: // store
					size := 1 + (int(next())|int(next())<<8)%PageSize
					seq++
					data := make([]byte, size)
					for i := range data {
						data[i] = seq ^ byte(i*7)
					}
					h, err := p.Store(data)
					if err != nil {
						t.Fatalf("%s: store %dB: %v", name, size, err)
					}
					live = append(live, obj{h, data})
				case 3, 4: // free a live object; its handle joins the stale set
					if len(live) == 0 {
						continue
					}
					i := int(next()) % len(live)
					if err := p.Free(live[i].h); err != nil {
						t.Fatalf("%s: free: %v", name, err)
					}
					stale = append(stale, live[i].h)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				case 5: // probe one live and one stale handle
					if len(live) > 0 {
						o := live[int(next())%len(live)]
						got, err := p.Load(o.h, nil)
						if err != nil || !bytes.Equal(got, o.data) {
							t.Fatalf("%s: live object corrupted: %v", name, err)
						}
						if sz, err := p.Size(o.h); err != nil || sz != len(o.data) {
							t.Fatalf("%s: Size = %d,%v want %d", name, sz, err, len(o.data))
						}
					}
					if len(stale) > 0 {
						h := stale[int(next())%len(stale)]
						if _, err := p.Load(h, nil); err != ErrInvalidHandle {
							t.Fatalf("%s: stale handle resolved: %v", name, err)
						}
					}
				case 6:
					p.CompactPartial(0)
				case 7:
					p.CompactPartial(1 + int(next())%4)
				}
			}
			// Final cross-check against the oracle.
			var total int64
			for _, o := range live {
				got, err := p.Load(o.h, nil)
				if err != nil || !bytes.Equal(got, o.data) {
					t.Fatalf("%s: final live check failed: %v", name, err)
				}
				total += int64(len(o.data))
			}
			for _, h := range stale {
				if _, err := p.Load(h, nil); err != ErrInvalidHandle {
					t.Fatalf("%s: final stale check: %v, want ErrInvalidHandle", name, err)
				}
				if err := p.Free(h); err != ErrInvalidHandle {
					t.Fatalf("%s: final stale double-free: %v, want ErrInvalidHandle", name, err)
				}
			}
			s := p.Stats()
			if s.Objects != len(live) || s.StoredBytes != total {
				t.Fatalf("%s: stats drifted: Objects=%d want %d, StoredBytes=%d want %d",
					name, s.Objects, len(live), s.StoredBytes, total)
			}
			if len(live) == 0 && s.PoolPages != 0 {
				t.Fatalf("%s: empty pool still holds %d pages", name, s.PoolPages)
			}
		}
	})
}
