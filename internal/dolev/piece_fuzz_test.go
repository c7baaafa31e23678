package dolev

import (
	"testing"

	"flm/internal/graph"
)

// FuzzDecodePiece feeds arbitrary wire strings to the Dolev piece
// decoder. It must never panic, and whatever it accepts must re-encode
// to exactly the bytes it consumed: a piece has one wire form, so the
// decoder rejects overlong uvarints, out-of-range nodes and a body past
// the end, and leaves any trailing bytes to the next piece.
func FuzzDecodePiece(f *testing.F) {
	r, err := NewRouter(graph.Complete(4), 1)
	if err != nil {
		f.Fatal(err)
	}
	good := piece{origin: 0, dest: 1, pathIdx: 0, hop: 1, innerRound: 0, body: "ab"}.encode()
	for _, s := range []string{
		"", good, good + good, good[:len(good)-1], "\x80\x00" + good[1:], "\x04" + good[1:],
		piece{origin: 3, dest: 2, pathIdx: 2, hop: 0, innerRound: 300}.encode(),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, rest, ok := decodePiece(r, s)
		if !ok {
			if rest != s {
				t.Fatalf("decodePiece(%q) rejected the piece but consumed bytes: rest %q", s, rest)
			}
			return
		}
		if got := p.encode() + rest; got != s {
			t.Fatalf("decodePiece(%q) = %+v, rest %q, which re-encodes as %q", s, p, rest, got)
		}
	})
}
