package dolev

import (
	"testing"

	"flm/internal/graph"
)

// FuzzDecodePiece feeds arbitrary wire strings to the Dolev piece
// decoder. It must never panic, and whatever it accepts must re-encode
// to exactly the input: a piece has one wire form.
func FuzzDecodePiece(f *testing.F) {
	r, err := NewRouter(graph.Complete(4), 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		"", "p0>p1>0,1,0,ab", "p3>p2>2,0,-1,", "p0>p1>0,1,0,ZZ", "p0>p1>0,1,0,AB", "p0>p1,1,0,ab",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, ok := decodePiece(r, s)
		if !ok {
			return
		}
		if got := p.encode(r); got != s {
			t.Fatalf("decodePiece(%q) = %+v, which re-encodes as %q", s, p, got)
		}
	})
}
