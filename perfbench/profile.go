package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the gzip'd profile.proto that runtime/pprof
// writes. It decodes just what the layer fold needs: sample types,
// samples (location ids and values), locations with their (possibly
// inlined) lines, functions, and the string table. Every other field is
// skipped by wire type, so newer profile fields do not break it.

// profile is the decoded subset of a pprof profile.
type profile struct {
	sampleTypes []string // sample value type names, e.g. "samples", "cpu"
	samples     []sample
	locations   map[uint64][]frame // location id -> frames, innermost first
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64  // one per sample type
}

// frame is one function activation at a location.
type frame struct {
	name string // fully qualified, e.g. "flm/internal/sim.executeCore"
	file string
}

// Protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireLen    = 2
	wireI32    = 5
)

// pbuf walks one protobuf message.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.fail("truncated varint")
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.fail("varint overflows 64 bits")
	return 0
}

func (p *pbuf) fail(msg string) {
	if p.err == nil {
		p.err = errors.New("profile: " + msg)
	}
	p.b = nil
}

// next reads one field key; ok is false at the end or on error.
func (p *pbuf) next() (field int, wire int, ok bool) {
	if p.err != nil || len(p.b) == 0 {
		return 0, 0, false
	}
	k := p.varint()
	if p.err != nil {
		return 0, 0, false
	}
	return int(k >> 3), int(k & 7), true
}

// bytesField reads a length-delimited payload.
func (p *pbuf) bytesField() []byte {
	n := p.varint()
	if p.err != nil {
		return nil
	}
	if n > uint64(len(p.b)) {
		p.fail("length-delimited field overruns message")
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

// skip discards a field of the given wire type.
func (p *pbuf) skip(wire int) {
	switch wire {
	case wireVarint:
		p.varint()
	case wireI64:
		p.take(8)
	case wireLen:
		p.bytesField()
	case wireI32:
		p.take(4)
	default:
		p.fail(fmt.Sprintf("unsupported wire type %d", wire))
	}
}

func (p *pbuf) take(n int) {
	if len(p.b) < n {
		p.fail("truncated fixed-width field")
		return
	}
	p.b = p.b[n:]
}

// uints appends a repeated uint64 field that may be packed or not.
func (p *pbuf) uints(dst []uint64, wire int) []uint64 {
	if wire == wireVarint {
		return append(dst, p.varint())
	}
	if wire != wireLen {
		p.fail("bad wire type for repeated integer")
		return dst
	}
	inner := pbuf{b: p.bytesField()}
	for len(inner.b) > 0 && inner.err == nil {
		dst = append(dst, inner.varint())
	}
	if inner.err != nil {
		p.fail(inner.err.Error())
	}
	return dst
}

// parseProfile decodes a gzip'd (or raw) profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawFunc struct{ name, file int64 }
	type rawLoc struct {
		id    uint64
		funcs []uint64 // function id per line, innermost first
	}
	var (
		strs      []string
		typeNames []int64
		samples   []sample
		locs      []rawLoc
		funcs     = map[uint64]rawFunc{}
	)
	p := pbuf{b: data}
	for {
		field, wire, ok := p.next()
		if !ok {
			break
		}
		if wire != wireLen {
			p.skip(wire)
			continue
		}
		msg := pbuf{b: p.bytesField()}
		switch field {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var t int64
			for f, w, ok := msg.next(); ok; f, w, ok = msg.next() {
				if f == 1 && w == wireVarint {
					t = int64(msg.varint())
				} else {
					msg.skip(w)
				}
			}
			typeNames = append(typeNames, t)
		case 2: // sample: location_id=1, value=2
			var s sample
			var vals []uint64
			for f, w, ok := msg.next(); ok; f, w, ok = msg.next() {
				switch f {
				case 1:
					s.locs = msg.uints(s.locs, w)
				case 2:
					vals = msg.uints(vals, w)
				default:
					msg.skip(w)
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			samples = append(samples, s)
		case 4: // location: id=1, line=4 (Line{function_id=1})
			var l rawLoc
			for f, w, ok := msg.next(); ok; f, w, ok = msg.next() {
				switch {
				case f == 1 && w == wireVarint:
					l.id = msg.varint()
				case f == 4 && w == wireLen:
					line := pbuf{b: msg.bytesField()}
					var fid uint64
					for lf, lw, ok := line.next(); ok; lf, lw, ok = line.next() {
						if lf == 1 && lw == wireVarint {
							fid = line.varint()
						} else {
							line.skip(lw)
						}
					}
					if line.err != nil {
						msg.fail(line.err.Error())
					}
					l.funcs = append(l.funcs, fid)
				default:
					msg.skip(w)
				}
			}
			locs = append(locs, l)
		case 5: // function: id=1, name=2, filename=4
			var id uint64
			var fn rawFunc
			for f, w, ok := msg.next(); ok; f, w, ok = msg.next() {
				switch {
				case f == 1 && w == wireVarint:
					id = msg.varint()
				case f == 2 && w == wireVarint:
					fn.name = int64(msg.varint())
				case f == 4 && w == wireVarint:
					fn.file = int64(msg.varint())
				default:
					msg.skip(w)
				}
			}
			funcs[id] = fn
		case 6: // string_table
			strs = append(strs, string(msg.b))
			msg.b = nil
		}
		if msg.err != nil {
			return nil, msg.err
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	prof := &profile{samples: samples, locations: make(map[uint64][]frame, len(locs))}
	for _, t := range typeNames {
		name, err := str(t)
		if err != nil {
			return nil, err
		}
		prof.sampleTypes = append(prof.sampleTypes, name)
	}
	for _, l := range locs {
		frames := make([]frame, 0, len(l.funcs))
		for _, fid := range l.funcs {
			fn, ok := funcs[fid]
			if !ok {
				return nil, fmt.Errorf("profile: location %d names unknown function %d", l.id, fid)
			}
			name, err := str(fn.name)
			if err != nil {
				return nil, err
			}
			file, err := str(fn.file)
			if err != nil {
				return nil, err
			}
			frames = append(frames, frame{name: name, file: file})
		}
		prof.locations[l.id] = frames
	}
	for _, s := range samples {
		if len(s.values) != len(prof.sampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values for %d sample types", len(s.values), len(prof.sampleTypes))
		}
		for _, id := range s.locs {
			if _, ok := prof.locations[id]; !ok {
				return nil, fmt.Errorf("profile: sample names unknown location %d", id)
			}
		}
	}
	return prof, nil
}

// Layer names the fold assigns besides the flm/internal package names.
const (
	layerBig          = "big"          // math/big, wherever it is called from
	layerCodec        = "sim.codec"    // sim.RunCodec and the run blob frame
	layerGC           = "gc"           // GC mark workers and mark assists
	layerUnattributed = "unattributed" // runtime, syscalls, the benchmark itself
)

// fold sums the named sample value (e.g. "cpu") per layer. A sample
// belongs to the innermost (leaf-most) frame that is either in math/big
// or in a flm/internal package; a sample anywhere under a GC worker or a
// mark assist belongs to "gc"; a sample with neither belongs to
// "unattributed". It returns the per-layer sums and their total.
func (p *profile) fold(valueType string) (map[string]int64, int64, error) {
	idx := -1
	for i, t := range p.sampleTypes {
		if t == valueType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, 0, fmt.Errorf("profile: no %q sample type in %v", valueType, p.sampleTypes)
	}
	out := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		v := s.values[idx]
		total += v
		out[p.layerOf(s)] += v
	}
	return out, total, nil
}

func (p *profile) layerOf(s sample) string {
	layer := ""
	for _, id := range s.locs {
		for _, f := range p.locations[id] {
			if f.name == "runtime.gcBgMarkWorker" || strings.HasPrefix(f.name, "runtime.gcAssistAlloc") {
				return layerGC
			}
			if layer == "" {
				layer = frameLayer(f)
			}
		}
	}
	if layer == "" {
		return layerUnattributed
	}
	return layer
}

// frameLayer names the layer of one frame, or "" for a frame that is
// in neither math/big nor flm/internal.
func frameLayer(f frame) string {
	if strings.HasPrefix(f.name, "math/big.") {
		return layerBig
	}
	rest, ok := strings.CutPrefix(f.name, "flm/internal/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	if pkg == "sim" && (strings.Contains(rest, "RunCodec") || strings.HasSuffix(f.file, "/sim/runblob.go")) {
		return layerCodec
	}
	return pkg
}
