// Package pproffold folds a CPU profile into per-layer buckets: each
// sample goes to the package of its innermost tango/internal/<pkg>
// frame. Samples with no such frame go to "runtime.gc" when a garbage
// collector frame is on the stack, to "runtime.sched" when every frame
// is in the runtime (scheduling, goroutine switches, idle spinning), and
// to "other" otherwise. Every sample lands in exactly one bucket, so the
// buckets sum to the profile total.
//
// It reads the gzip-compressed profile.proto that runtime/pprof writes,
// with its own protobuf decoder, so it needs nothing beyond the standard
// library.
package pproffold

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Bucket names for samples with no tango/internal frame.
const (
	GC    = "runtime.gc"
	Sched = "runtime.sched"
	Other = "other"
)

const layerPrefix = "tango/internal/"

// Table is a folded profile.
type Table struct {
	Unit    string           // unit of the folded value, e.g. "nanoseconds"
	Samples int              // samples in the profile
	Total   int64            // sum of the folded value over every sample
	Buckets map[string]int64 // folded value per bucket; sums to Total
}

// Fold parses a runtime/pprof CPU profile and folds it by layer. It
// folds the "cpu" sample value, or the last one when no value has that
// type.
func Fold(r io.Reader) (*Table, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("pproffold: reading profile: %w", err)
	}
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("pproffold: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pproffold: decompressing: %w", err)
		}
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	return p.fold()
}

// Classify returns the bucket of one stack, given its frames' function
// names innermost first.
func Classify(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, layerPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	allRuntime := len(frames) > 0
	for _, f := range frames {
		if isGC(f) {
			return GC
		}
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "internal/runtime/") {
			allRuntime = false
		}
	}
	if allRuntime {
		return Sched
	}
	return Other
}

// isGC reports whether a runtime frame belongs to the garbage collector.
func isGC(f string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
		"runtime.sweepone", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
		"runtime.(*sweepLocked)", "runtime.(*mspan).sweep", "runtime.(*scavengerState)",
		"runtime.(*pageAlloc).scavenge",
	} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// profile holds the parts of profile.proto the fold needs.
type profile struct {
	strings    []string
	valueTypes []int64 // string index of each sample value's type
	unitIdx    []int64 // string index of each sample value's unit
	samples    []sample
	locations  map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions  map[uint64]int64    // function ID -> string index of its name
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

func (p *profile) fold() (*Table, error) {
	vi := len(p.valueTypes) - 1
	for i, t := range p.valueTypes {
		if p.str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("pproffold: profile has no sample types")
	}
	t := &Table{Unit: p.str(p.unitIdx[vi]), Buckets: map[string]int64{}}
	var frames []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, fmt.Errorf("pproffold: sample has %d values, want more than %d", len(s.values), vi)
		}
		frames = frames[:0]
		for _, loc := range s.locs {
			fns, ok := p.locations[loc]
			if !ok {
				return nil, fmt.Errorf("pproffold: sample references unknown location %d", loc)
			}
			for _, fn := range fns {
				frames = append(frames, p.str(p.functions[fn]))
			}
		}
		v := s.values[vi]
		t.Buckets[Classify(frames)] += v
		t.Total += v
		t.Samples++
	}
	return t, nil
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walk(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case fProfileSampleType:
			var typ, unit int64
			err := walk(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case fValueTypeType:
					typ = int64(v)
				case fValueTypeUnit:
					unit = int64(v)
				}
				return nil
			})
			p.valueTypes = append(p.valueTypes, typ)
			p.unitIdx = append(p.unitIdx, unit)
			return err
		case fProfileSample:
			var s sample
			err := walk(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case fSampleLocation:
					return varints(w, v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return varints(w, v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walk(data, func(f, _ int, v uint64, d []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return walk(d, func(f, _ int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walk(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileString:
			if wire != wireBytes {
				return errors.New("pproffold: string table entry is not length-delimited")
			}
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.valueTypes) == 0 {
		return nil, errors.New("pproffold: not a profile: no sample types")
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// walk calls fn for every field of one message: v holds a varint or
// fixed value, data a length-delimited payload.
func walk(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pproffold: truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("pproffold: truncated varint")
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errors.New("pproffold: truncated fixed64")
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errors.New("pproffold: truncated fixed32")
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pproffold: truncated length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("pproffold: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field in either encoding: one
// varint per field, or packed into one length-delimited payload.
func varints(wire int, v uint64, data []byte, add func(uint64)) error {
	switch wire {
	case wireVarint:
		add(v)
		return nil
	case wireBytes:
		for len(data) > 0 {
			x, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("pproffold: truncated packed varint")
			}
			add(x)
			data = data[n:]
		}
		return nil
	}
	return fmt.Errorf("pproffold: repeated integer with wire type %d", wire)
}
