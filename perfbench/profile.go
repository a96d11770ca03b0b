package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf profiles runtime/pprof
// writes: enough to attribute each CPU sample to the package of its leaf
// frame and to tell garbage-collector samples apart.

// cpuSamples is a decoded CPU profile, reduced to sample counts.
type cpuSamples struct {
	total  int64
	byPkg  map[string]int64 // by the package of the leaf frame
	gcWork int64            // samples with a garbage-collector frame on the stack
}

// gcFrames are the runtime functions whose presence on a stack marks a
// sample as garbage-collector work.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcMarkTermination": true,
	"runtime.gcStart":           true,
	"runtime.sweepone":          true,
	"runtime.markroot":          true,
}

var errBadProfile = errors.New("malformed CPU profile")

// decodeCPUProfile reads a profile as written by pprof.StartCPUProfile.
func decodeCPUProfile(gz []byte) (cpuSamples, error) {
	out := cpuSamples{byPkg: map[string]int64{}}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return out, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return out, err
	}

	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location → function IDs, innermost first
		fnName  = map[uint64]uint64{}   // function → string-table index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					s.values = pbUints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return out, err
	}

	name := func(fn uint64) string {
		if i := fnName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, s := range samples {
		if len(s.values) == 0 || len(s.locs) == 0 {
			continue
		}
		n := int64(s.values[0])
		out.total += n
		if fns := locFns[s.locs[0]]; len(fns) > 0 {
			out.byPkg[packageOf(name(fns[0]))] += n
		}
		gc := false
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				gc = gc || gcFrames[name(fn)]
			}
		}
		if gc {
			out.gcWork += n
		}
	}
	return out, nil
}

// packageOf returns the import path of a symbol such as
// "repro/internal/cache.(*Cache).Access" or "runtime.mallocgc".
func packageOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// pbFields calls fn for each field of one protobuf message: varint fields
// with their value in v, length-delimited fields with their bytes in b.
// Fixed-width fields are skipped.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProfile
		}
		msg = msg[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errBadProfile
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errBadProfile
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errBadProfile
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errBadProfile
			}
			msg = msg[4:]
		default:
			return errBadProfile
		}
	}
	return nil
}

// pbUints appends a repeated integer field that arrives either packed
// (b holds the varints) or as one value v.
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
