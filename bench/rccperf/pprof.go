package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// profile is the part of a gzipped profile.proto (the format
// runtime/pprof writes) that attribution needs: each sample's stack as
// function names, leaf first with inlined frames expanded, and its
// values.
type profile struct {
	sampleTypes []string // "type/unit" per value index, e.g. "cpu/nanoseconds"
	period      int64
	samples     []profSample
}

type profSample struct {
	stack  []string
	values []int64
}

// valueIndex returns the index of the value whose type is typ, or -1.
func (p *profile) valueIndex(typ string) int {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i
		}
	}
	return -1
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	pbProfileSampleType    = 1
	pbProfileSample        = 2
	pbProfileLocation      = 4
	pbProfileFunction      = 5
	pbProfileStringTable   = 6
	pbProfilePeriod        = 12
	pbValueTypeType        = 1
	pbValueTypeUnit        = 2
	pbSampleLocationID     = 1
	pbSampleValue          = 2
	pbLocationID           = 1
	pbLocationLine         = 4
	pbLineFunctionID       = 1
	pbFunctionID           = 1
	pbFunctionName         = 2
	wireVarint             = 0
	wireFixed64            = 1
	wireBytes              = 2
	wireFixed32            = 5
	maxProfileUncompressed = 1 << 30
)

// parseProfile decodes a gzipped profile.proto.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(io.LimitReader(zr, maxProfileUncompressed))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeIdx   [][2]uint64 // (type, unit) string indexes
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> name string index
		period    int64
	)
	err = eachField(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case pbProfileSampleType:
			var tu [2]uint64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case pbValueTypeType:
					tu[0] = v
				case pbValueTypeUnit:
					tu[1] = v
				}
				return nil
			})
			typeIdx = append(typeIdx, tu)
			return err
		case pbProfileSample:
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case pbSampleLocationID:
					return appendUints(&s.locs, wire, v, b)
				case pbSampleValue:
					var u []uint64
					if err := appendUints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case pbProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case pbLocationID:
					id = v
				case pbLocationLine:
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == pbLineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case pbProfileFunction:
			var id, name uint64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case pbFunctionID:
					id = v
				case pbFunctionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case pbProfileStringTable:
			strs = append(strs, string(b))
		case pbProfilePeriod:
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{period: period}
	for _, tu := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(tu[0])+"/"+str(tu[1]))
	}
	for _, s := range samples {
		ps := profSample{values: s.values}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField calls fn for every field of the protobuf message in b: v
// holds the value of varint and fixed fields, and b the payload of
// length-delimited ones.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != wireBytes {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
