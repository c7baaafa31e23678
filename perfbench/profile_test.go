package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math/big"
	"runtime/pprof"
	"testing"
	"time"
)

// pbWriter is a minimal protobuf encoder for building test profiles.
type pbWriter struct{ b []byte }

func (w *pbWriter) key(field, wire int) { w.b = binary.AppendUvarint(w.b, uint64(field<<3|wire)) }

func (w *pbWriter) uint(field int, v uint64) {
	w.key(field, wireVarint)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *pbWriter) bytes(field int, v []byte) {
	w.key(field, wireLen)
	w.b = binary.AppendUvarint(w.b, uint64(len(v)))
	w.b = append(w.b, v...)
}

func (w *pbWriter) packed(field int, vs ...uint64) {
	var in []byte
	for _, v := range vs {
		in = binary.AppendUvarint(in, v)
	}
	w.bytes(field, in)
}

// syntheticProfile encodes a profile whose fold is known exactly. It
// mixes packed and unpacked repeated fields, an inlined location, an
// unknown field, and a fixed-width field the decoder must skip.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"flm/internal/dolev.(*overlayDevice).Step", "/src/internal/dolev/dolev.go",
		"runtime.mallocgc", "/go/runtime/malloc.go",
		"math/big.nat.mul", "/go/math/big/nat.go",
		"flm/internal/clockfn.Iterates", "/src/internal/clockfn/clockfn.go",
		"runtime.gcBgMarkWorker", "/go/runtime/mgc.go",
		"flm/internal/sim.RunCodec.Decode", "/src/internal/sim/runblob.go",
		"flm/internal/sim.(*blobReader).str",
		"main.main", "/src/perfbench/main.go",
		"flm/internal/sweep.Map[...].func1", "/src/internal/sweep/sweep.go",
	}
	var w pbWriter
	vt := func(typ, unit uint64) []byte {
		var m pbWriter
		m.uint(1, typ)
		m.uint(2, unit)
		return m.b
	}
	w.bytes(1, vt(1, 2))
	w.bytes(1, vt(3, 4))
	fn := func(id, name, file uint64) {
		var m pbWriter
		m.uint(1, id)
		m.uint(2, name)
		m.uint(3, name) // system_name, ignored
		m.uint(4, file)
		w.bytes(5, m.b)
	}
	fn(1, 5, 6)   // dolev Step
	fn(2, 7, 8)   // mallocgc
	fn(3, 9, 10)  // big
	fn(4, 11, 12) // clockfn
	fn(5, 13, 14) // gc worker
	fn(6, 15, 16) // RunCodec.Decode
	fn(7, 17, 16) // blobReader in runblob.go
	fn(8, 18, 19) // main
	fn(9, 20, 21) // sweep closure
	loc := func(id uint64, funcs ...uint64) {
		var m pbWriter
		m.uint(1, id)
		m.uint(3, 0xdeadbeef) // address, ignored
		for _, f := range funcs {
			var line pbWriter
			line.uint(1, f)
			line.uint(2, 42)
			m.bytes(4, line.b)
		}
		w.bytes(4, m.b)
	}
	loc(1, 1)
	loc(2, 2)
	loc(3, 3, 4) // big inlined into clockfn: innermost first
	loc(4, 5)
	loc(5, 7, 6) // blobReader inlined into RunCodec.Decode
	loc(6, 8)
	loc(7, 9)
	smp := func(packed bool, cpu uint64, locs ...uint64) {
		var m pbWriter
		if packed {
			m.packed(1, locs...)
			m.packed(2, 1, cpu)
		} else {
			for _, l := range locs {
				m.uint(1, l)
			}
			m.uint(2, 1)
			m.uint(2, cpu)
		}
		w.bytes(2, m.b)
	}
	smp(true, 100, 2, 1, 7, 6) // mallocgc under dolev: dolev
	smp(false, 30, 1, 7, 6)    // dolev
	smp(true, 50, 2, 3, 7, 6)  // mallocgc under big under clockfn: big
	smp(true, 7, 4)            // gc worker
	smp(false, 11, 2, 1, 4)    // anything under a gc worker is gc
	smp(true, 20, 5, 7)        // codec, not sim
	smp(true, 3, 2, 6)         // runtime under main: unattributed
	smp(true, 5, 7, 6)         // sweep closure
	for _, s := range strs {
		w.bytes(6, []byte(s))
	}
	w.key(99, wireI64) // unknown fixed64 field
	w.b = append(w.b, 1, 2, 3, 4, 5, 6, 7, 8)
	w.uint(12, 10000000) // period

	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(w.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestFoldSyntheticProfile(t *testing.T) {
	prof, err := parseProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	got, total, err := prof.fold("cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"dolev": 130, "big": 50, "gc": 18, "sim.codec": 20, "unattributed": 3, "sweep": 5}
	if total != 226 {
		t.Errorf("total = %d, want 226", total)
	}
	if len(got) != len(want) {
		t.Errorf("fold = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("fold[%s] = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	if counts, _, err := prof.fold("samples"); err != nil || counts["dolev"] != 2 {
		t.Errorf("samples fold = %v, %v; want dolev=2", counts, err)
	}
	if _, _, err := prof.fold("alloc_space"); err == nil {
		t.Error("fold of a missing sample type succeeded")
	}
}

func TestParseProfileRejectsDamage(t *testing.T) {
	var raw []byte
	zr, err := gzip.NewReader(bytes.NewReader(syntheticProfile(t)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	raw = buf.Bytes()
	if _, err := parseProfile(raw); err != nil {
		t.Fatalf("uncompressed profile: %v", err)
	}
	for cut := 1; cut < len(raw); cut++ {
		// Every truncation must either decode (it ended on a field
		// boundary and what remains is consistent) or fail; none may panic.
		_, _ = parseProfile(raw[:cut])
	}
	if _, err := parseProfile(raw[:len(raw)-3]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// spin burns CPU in a named function so the runtime profile has a frame
// the test can find.
//
//go:noinline
func spin(d time.Duration) *big.Int {
	x := big.NewInt(3)
	for end := time.Now().Add(d); time.Now().Before(end); {
		x.Mul(x, x)
		x.Mod(x, big.NewInt(1_000_000_007))
	}
	return x
}

func TestFoldRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, total, err := prof.fold("cpu")
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("profile of 400ms of spinning has no CPU: %v", got)
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != total {
		t.Errorf("layers sum to %d, total is %d", sum, total)
	}
	if got[layerBig] == 0 {
		t.Errorf("no math/big time in a big.Int loop: %v", got)
	}
	found := false
	for _, frames := range prof.locations {
		for _, f := range frames {
			if f.name == "flm/perfbench.spin" || f.name == "main.spin" {
				found = true
			}
		}
	}
	if !found {
		t.Error("spin frame missing from the decoded locations")
	}
}
