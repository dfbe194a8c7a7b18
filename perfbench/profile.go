package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is decoded here rather than with a profile library:
// the module takes no dependencies, and attribution needs only each
// sample's count and its stack of function names. The wire format is
// pprof's profile.proto (gzip-compressed protobuf).

// cpuSample is one distinct stack, leaf first, and its sample count.
type cpuSample struct {
	stack []string
	count int64
}

// decodeProfile parses a gzip-compressed pprof CPU profile.
func decodeProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				if i := funcs[fn]; i >= 0 && int(i) < len(strs) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as
// one unpacked value or as a packed run.
func appendPacked(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const (
	repoPrefix = "mpj/internal/"
	harness    = "harness"
)

// layerOf charges a stack (leaf first) to the innermost frame that is
// either a repo layer (mpj/internal/<layer>) or the benchmark's own
// code, which includes the load scenarios it drives. Runtime and
// standard-library frames above it are charged to that caller. A
// stack with neither reads "" (unattributed).
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			layer := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				layer = rest[:i]
			}
			if layer == "load" {
				return harness
			}
			return layer
		}
		if strings.HasPrefix(fn, "main.") {
			return harness
		}
	}
	return ""
}

// Stack-shape predicates behind the runtime.* and audit.sort shares.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

func isStackGrowth(fn string) bool {
	return fn == "runtime.newstack" || fn == "runtime.copystack" || fn == "runtime.morestack"
}

func anyFrame(stack []string, pred func(string) bool) bool {
	for _, fn := range stack {
		if pred(fn) {
			return true
		}
	}
	return false
}

// cpuLayers lists the layers whose CPU share the traced run reports.
var cpuLayers = []string{
	"audit", "classes", "core", "coreutils", "events", "netsim", "objspace",
	"playground", "security", "shell", "streams", "user", "vfs", "vm",
}

// attribute turns profile samples into CPU shares: per layer, plus
// the runtime stack shapes the prediction table names. Shares are of
// all samples; the map also holds "harness" and the raw sample total.
func attribute(samples []cpuSample) (shares map[string]float64, total int64) {
	counts := map[string]int64{}
	for _, s := range samples {
		total += s.count
		counts["layer:"+layerOf(s.stack)] += s.count
		if len(s.stack) > 0 && strings.HasPrefix(s.stack[0], "runtime.memclr") {
			counts["runtime.memclr_share"] += s.count
		}
		if anyFrame(s.stack, isGC) {
			counts["runtime.gc_share"] += s.count
		}
		if anyFrame(s.stack, isStackGrowth) {
			counts["runtime.stack_growth_share"] += s.count
		}
		if anyFrame(s.stack, func(fn string) bool { return fn == repoPrefix+"audit.sortRecords" }) {
			counts["audit.sort_share"] += s.count
		}
	}
	shares = map[string]float64{}
	for _, l := range cpuLayers {
		shares[l+".cpu_share"] = ratio(float64(counts["layer:"+l]), float64(total))
	}
	shares["harness.cpu_share"] = ratio(float64(counts["layer:"+harness]), float64(total))
	shares["runtime.unattributed_share"] = ratio(float64(counts["layer:"]), float64(total))
	for _, k := range []string{"runtime.memclr_share", "runtime.gc_share", "runtime.stack_growth_share", "audit.sort_share"} {
		shares[k] = ratio(float64(counts[k]), float64(total))
	}
	return shares, total
}
