package clockfn

import (
	"math"
	"math/big"
	"testing"
)

// qEdges are values at the edges of the int64 form: the largest parts,
// the float64 exactness limit, and fractions whose sums and products
// overflow.
var qEdges = [][2]int64{
	{0, 1}, {1, 1}, {-1, 1}, {1, 2}, {-3, 2}, {5, 4},
	{math.MaxInt64, 1}, {math.MinInt64, 1}, {1, math.MaxInt64}, {-1, math.MaxInt64},
	{math.MaxInt64, math.MaxInt64 - 1}, {math.MinInt64, 3}, {3, math.MinInt64},
	{1 << 53, 1}, {1<<53 + 1, 1}, {-(1<<53 + 1), 3}, {1, 1<<53 + 1}, {1<<53 - 1, 1 << 52},
	{1 << 62, 3}, {3, 1 << 62}, {-(1 << 62), 1<<61 + 1},
}

// toRat returns x as a *big.Rat of the test's own.
func (x Q) toRat() *big.Rat { return new(big.Rat).Set(x.rat(new(big.Rat))) }

// checkQ fails unless q holds the value want, in canonical form.
func checkQ(t *testing.T, op string, q Q, want *big.Rat) {
	t.Helper()
	if got := q.toRat(); got.Cmp(want) != 0 {
		t.Fatalf("%s = %s, want %s", op, got.RatString(), want.RatString())
	}
	if s := q.String(); s != want.RatString() {
		t.Fatalf("%s.String() = %q, want %q", op, s, want.RatString())
	}
	fits := want.Num().IsInt64() && want.Num().Int64() != math.MinInt64 && want.Denom().IsInt64()
	if q.IsBig() == fits {
		t.Fatalf("%s = %s: IsBig() = %v, but fits int64 = %v", op, q, q.IsBig(), fits)
	}
	if !q.IsBig() {
		if want.Sign() == 0 && q != (Q{}) {
			t.Fatalf("%s: zero held as %+v, not the zero value", op, q)
		}
		if want.Sign() != 0 && (q.d <= 0 || gcd(abs(q.n), uint64(q.d)) != 1) {
			t.Fatalf("%s: %d/%d is not canonical", op, q.n, q.d)
		}
	}
}

// checkArith compares every operation of a and b against big.Rat.
func checkArith(t *testing.T, a, b Q) {
	t.Helper()
	ar, br := a.toRat(), b.toRat()
	checkQ(t, "a+b", a.Add(b), new(big.Rat).Add(ar, br))
	checkQ(t, "a-b", a.Sub(b), new(big.Rat).Sub(ar, br))
	checkQ(t, "a*b", a.Mul(b), new(big.Rat).Mul(ar, br))
	checkQ(t, "-a", a.Neg(), new(big.Rat).Neg(ar))
	if br.Sign() != 0 {
		checkQ(t, "a/b", a.Quo(b), new(big.Rat).Quo(ar, br))
	} else if !panics(func() { a.Quo(b) }) {
		t.Fatal("a/0 did not panic")
	}
	if got, want := a.Cmp(b), ar.Cmp(br); got != want {
		t.Fatalf("Cmp(%s, %s) = %d, want %d", a, b, got, want)
	}
	if got, want := a.Sign(), ar.Sign(); got != want {
		t.Fatalf("Sign(%s) = %d, want %d", a, got, want)
	}
	if got, _ := ar.Float64(); a.Float64() != got {
		t.Fatalf("Float64(%s) = %v, want %v", a, a.Float64(), got)
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// newQChecked builds n/d and checks it against big.NewRat; ok is false
// when d is zero, where both must panic.
func newQChecked(t *testing.T, n, d int64) (Q, bool) {
	t.Helper()
	if d == 0 {
		if !panics(func() { NewQ(n, d) }) {
			t.Fatalf("NewQ(%d, 0) did not panic", n)
		}
		return Q{}, false
	}
	q := NewQ(n, d)
	checkQ(t, "NewQ", q, big.NewRat(n, d))
	return q, true
}

func TestQMatchesBigRat(t *testing.T) {
	for _, x := range qEdges {
		for _, y := range qEdges {
			a, _ := newQChecked(t, x[0], x[1])
			b, _ := newQChecked(t, y[0], y[1])
			checkArith(t, a, b)
			// Operands already in big mode, and results that return
			// to the int64 form.
			checkArith(t, a.Mul(b).Add(a), b.Mul(b))
			if b.Sign() != 0 {
				checkArith(t, a.Mul(b).Mul(b).Quo(b), a)
			}
		}
	}
}

func TestQZeroValue(t *testing.T) {
	var z Q
	checkQ(t, "Q{}", z, new(big.Rat))
	checkArith(t, z, NewQ(3, 2))
	checkArith(t, NewQ(-7, 3), z)
	if q, ok := ParseQ("-0/5"); !ok || q != z {
		t.Errorf("ParseQ(-0/5) = %+v, %v; want the zero value", q, ok)
	}
}

func TestParseQ(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "7", "-7", "3/2", "-3/2", "4/6", "9223372036854775807", "-9223372036854775807",
		"-9223372036854775808", "9223372036854775808", "1/9223372036854775808", "18446744073709551616/2",
		"010", "0x10/3", "+1", "1_0", "1.5", "1e3", "", "-", "/", "1/", "/2", "1/0", "0/0", "00", "1/-2",
		"1/02", "a", " 1", "1 ", "--1",
	} {
		q, ok := ParseQ(s)
		r, rok := new(big.Rat).SetString(s)
		if ok != rok {
			t.Errorf("ParseQ(%q) ok = %v, SetString ok = %v", s, ok, rok)
			continue
		}
		if ok {
			checkQ(t, "ParseQ("+s+")", q, r)
		}
	}
}

func TestQAllocFree(t *testing.T) {
	a, b := NewQ(3, 2), NewQ(-5, 4)
	var sink Q
	var c int
	var f float64
	allocs := testing.AllocsPerRun(100, func() {
		sink = a.Add(b).Sub(a).Mul(b).Quo(a)
		c = a.Cmp(b)
		f = sink.Float64()
		sink, _ = ParseQ("-12345/678")
	})
	if allocs != 0 {
		t.Errorf("int64-form arithmetic allocated %v times per run", allocs)
	}
	_, _, _ = sink, c, f
}

func FuzzQArith(f *testing.F) {
	for _, x := range qEdges {
		f.Add(x[0], x[1], int64(7), int64(3))
	}
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64) {
		a, okA := newQChecked(t, an, ad)
		b, okB := newQChecked(t, bn, bd)
		if !okA || !okB {
			return
		}
		checkArith(t, a, b)
		checkArith(t, a.Mul(b), a.Add(b))
	})
}

// FuzzParseQ's seeds live in testdata/fuzz/FuzzParseQ.
func FuzzParseQ(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		q, ok := ParseQ(s)
		r, rok := new(big.Rat).SetString(s)
		if ok != rok {
			t.Fatalf("ParseQ(%q) ok = %v, SetString ok = %v", s, ok, rok)
		}
		if ok {
			checkQ(t, "ParseQ", q, r)
		}
	})
}
