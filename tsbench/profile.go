package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// cpuCounts decodes a runtime/pprof CPU profile (gzipped profile.proto)
// and adds each layer's CPU sample count to counts. The decoder reads
// only the fields attribution needs: samples, locations, functions and
// the string table.
//
// A sample belongs to the layer of the innermost entry function on its
// stack (see entryLayer): helpers such as the Zipf sampler count toward
// the layer that called them (workload NextOp), and runtime frames such
// as mallocgc toward their caller. Stacks with no entry function are
// runtime.gc when a GC worker is on them and other otherwise.
func cpuCounts(gz []byte, counts map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var stack []string // leaf first
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				stack = append(stack, p.strings[p.funcNames[fid]])
			}
		}
		counts[layerOf(stack)] += s.value
	}
	return nil
}

// shares turns per-layer sample counts into shares of all samples.
func shares(counts map[string]int64) map[string]float64 {
	var total int64
	for _, v := range counts {
		total += v
	}
	out := map[string]float64{}
	for k, v := range counts {
		if total > 0 {
			out[k] = float64(v) / float64(total)
		}
	}
	return out
}

const modPrefix = "tierscape/internal/"

// entryLayer maps a frame to the layer whose public entry function it is,
// or "" when the frame is not an entry function.
func entryLayer(fn string) string {
	if !strings.HasPrefix(fn, modPrefix) {
		return ""
	}
	rest := fn[len(modPrefix):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return ""
	}
	pkg, name := rest[:dot], rest[dot+1:]
	method := strings.HasPrefix(name, "(")
	switch pkg {
	case "compress":
		switch {
		case strings.HasSuffix(name, ").Decompress"):
			return "compress.decompress"
		case strings.HasSuffix(name, ").Compress"):
			return "compress.compress"
		}
	case "corpus":
		if strings.HasSuffix(name, ").Fill") {
			return "corpus"
		}
	case "workload":
		if strings.HasSuffix(name, ").NextOp") {
			return "workload.nextop"
		}
		// Exported constructors: NewRMat, NewBFS, Memcached, Redis, ...
		if !method && name != "" && name[0] >= 'A' && name[0] <= 'Z' {
			return "workload.build"
		}
	case "mem":
		switch {
		case name == "(*Manager).Access":
			return "mem.access"
		case method && strings.HasPrefix(name, "(*Manager)."):
			return "mem.migrate"
		}
	case "zpool":
		return "zpool"
	case "ztier":
		if strings.Contains(name, "Compact") {
			return "zpool"
		}
	case "model", "ilp":
		return "model"
	case "stats":
		if strings.HasPrefix(name, "(*Summary).") || strings.HasPrefix(name, "(*LogHist).") {
			return "stats"
		}
	case "policy", "telemetry", "obs", "sim":
		return pkg
	}
	return ""
}

func layerOf(stack []string) string {
	for _, fn := range stack {
		if l := entryLayer(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			return "runtime.gc"
		}
	}
	return "other"
}

type profSample struct {
	locs  []uint64
	value int64
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string index
	strings   []string
}

var errProto = errors.New("malformed profile")

// pbuf is a minimal protobuf wire-format reader.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field returns the next field number, wire type, and for length-delimited
// fields the payload (for varints, the value in v).
func (p *pbuf) field() (num int, wire int, v uint64, payload []byte, err error) {
	k, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(k>>3), int(k&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		n, err = p.varint()
		if err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errProto
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[4:]
	default:
		err = errProto
	}
	return num, wire, v, payload, err
}

// uints appends a repeated uint64 field occurrence, packed or not.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := pbuf{payload}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	top := pbuf{b}
	for len(top.b) > 0 {
		num, _, _, payload, err := top.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s profSample
			var vals []uint64
			q := pbuf{payload}
			for len(q.b) > 0 {
				n, w, x, pl, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, x, pl)
				case 2:
					vals, err = uints(vals, w, x, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) > 0 {
				s.value = int64(vals[0]) // sample count
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			q := pbuf{payload}
			for len(q.b) > 0 {
				n, _, x, pl, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 4: // Line
					l := pbuf{pl}
					for len(l.b) > 0 {
						ln, _, lx, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							funcs = append(funcs, lx)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // Function
			var id uint64
			var name int64
			q := pbuf{payload}
			for len(q.b) > 0 {
				n, _, x, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 2:
					name = int64(x)
				}
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
	}
	for _, n := range p.funcNames {
		if n < 0 || int(n) >= len(p.strings) {
			return nil, errProto
		}
	}
	return p, nil
}
