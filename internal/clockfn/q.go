package clockfn

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Q is an exact rational number and a plain value: arithmetic returns a
// new Q and never changes its operands. The zero value is 0.
//
// A Q whose numerator and denominator both fit in 63 bits is held as a
// canonical int64 fraction n/d (d > 0, gcd(|n|, d) = 1), and its
// arithmetic is overflow-checked machine arithmetic. A result that does
// not fit is computed with math/big instead and held as an immutable
// *big.Rat; any result that fits again is brought back to the int64
// form, so the representation of a value is unique. The timed model's
// tick times and hardware readings stay in the int64 form; only values
// whose denominators keep growing, like an averaging device's
// correction, reach math/big.
type Q struct {
	n, d int64    // int64 form; 0 is always the zero value, with d == 0
	r    *big.Rat // non-nil: the value does not fit the int64 form
}

// NewQ returns n/d. Like big.NewRat it panics when d is 0.
func NewQ(n, d int64) Q {
	if d == 0 {
		panic("clockfn: zero denominator")
	}
	if n == math.MinInt64 || d == math.MinInt64 {
		return fromRat(big.NewRat(n, d))
	}
	if d < 0 {
		n, d = -n, -d
	}
	return reduced(n, d)
}

// IsBig reports whether the value is held by math/big because its
// numerator or denominator does not fit in 63 bits.
func (x Q) IsBig() bool { return x.r != nil }

// Sign returns -1, 0 or +1.
func (x Q) Sign() int {
	if x.r != nil {
		return x.r.Sign()
	}
	switch {
	case x.n < 0:
		return -1
	case x.n > 0:
		return 1
	}
	return 0
}

// Neg returns -x.
func (x Q) Neg() Q {
	if x.r != nil {
		return fromRat(new(big.Rat).Neg(x.r))
	}
	return Q{n: -x.n, d: x.d}
}

// Add returns x + y.
func (x Q) Add(y Q) Q {
	if x.r == nil && y.r == nil {
		if z, ok := addSmall(x.n, x.den(), y.n, y.den()); ok {
			return z
		}
	}
	var xt, yt big.Rat
	return fromRat(new(big.Rat).Add(x.rat(&xt), y.rat(&yt)))
}

// Sub returns x - y.
func (x Q) Sub(y Q) Q {
	if x.r == nil && y.r == nil {
		if z, ok := addSmall(x.n, x.den(), -y.n, y.den()); ok {
			return z
		}
	}
	var xt, yt big.Rat
	return fromRat(new(big.Rat).Sub(x.rat(&xt), y.rat(&yt)))
}

// Mul returns x * y.
func (x Q) Mul(y Q) Q {
	if x.r == nil && y.r == nil {
		if z, ok := mulSmall(x.n, x.den(), y.n, y.den()); ok {
			return z
		}
	}
	var xt, yt big.Rat
	return fromRat(new(big.Rat).Mul(x.rat(&xt), y.rat(&yt)))
}

// Quo returns x / y. Like big.Rat.Quo it panics when y is 0.
func (x Q) Quo(y Q) Q {
	if y.Sign() == 0 {
		panic("clockfn: division by zero")
	}
	if x.r == nil && y.r == nil {
		// x / (n/d) = x * (d/n), with the sign moved to the numerator.
		n, d := y.den(), y.n
		if d < 0 {
			n, d = -n, -d
		}
		if z, ok := mulSmall(x.n, x.den(), n, d); ok {
			return z
		}
	}
	var xt, yt big.Rat
	return fromRat(new(big.Rat).Quo(x.rat(&xt), y.rat(&yt)))
}

// Cmp compares x and y exactly, returning -1, 0 or +1.
func (x Q) Cmp(y Q) int {
	if x.r != nil || y.r != nil {
		var xt, yt big.Rat
		return x.rat(&xt).Cmp(y.rat(&yt))
	}
	sx, sy := x.Sign(), y.Sign()
	if sx != sy || sx == 0 {
		return cmpInt(sx, sy)
	}
	// Same nonzero sign: compare |x.n|·y.d against |y.n|·x.d in 128 bits.
	xh, xl := bits.Mul64(abs(x.n), uint64(y.den()))
	yh, yl := bits.Mul64(abs(y.n), uint64(x.den()))
	c := cmpInt(xh, yh)
	if c == 0 {
		c = cmpInt(xl, yl)
	}
	return sx * c
}

// Float64 returns the float64 nearest to x, exactly as big.Rat.Float64
// rounds it.
func (x Q) Float64() float64 {
	// Both operands convert exactly and IEEE division rounds the exact
	// quotient once, to nearest even, as big.Rat.Float64 does.
	if x.r == nil && abs(x.n) <= 1<<53 && x.den() <= 1<<53 {
		return float64(x.n) / float64(x.den())
	}
	var xt big.Rat
	f, _ := x.rat(&xt).Float64()
	return f
}

// String formats x as big.Rat.RatString does: "n" for an integer,
// "n/d" otherwise.
func (x Q) String() string {
	if x.r != nil {
		return x.r.RatString()
	}
	var buf [40]byte
	b := strconv.AppendInt(buf[:0], x.n, 10)
	if d := x.den(); d != 1 {
		b = append(b, '/')
		b = strconv.AppendInt(b, d, 10)
	}
	return string(b)
}

// ParseQ parses s as big.Rat.SetString does and reports whether it is a
// valid rational. Strings in RatString's form with 63-bit parts are
// parsed directly; every other string goes through SetString, so
// acceptance and value always match it.
func ParseQ(s string) (Q, bool) {
	if n, d, ok := parseSmall(s); ok {
		return reduced(n, d), true
	}
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return Q{}, false
	}
	return fromRat(r), true
}

// parseSmall parses -?(0|[1-9][0-9]*)(/[1-9][0-9]*)? with both parts
// below 2^63; anything else is left to big.Rat.
func parseSmall(s string) (n, d int64, ok bool) {
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		s = s[1:]
	}
	num, rest, ok := parseDigits(s, true)
	if !ok {
		return 0, 0, false
	}
	d = 1
	if rest != "" {
		if rest[0] != '/' {
			return 0, 0, false
		}
		if d, rest, ok = parseDigits(rest[1:], false); !ok || rest != "" {
			return 0, 0, false
		}
	}
	if neg {
		num = -num
	}
	return num, d, true
}

// parseDigits reads a decimal without leading zeros from the front of s
// (a lone "0" only when zero is allowed) and returns it with the rest
// of s.
func parseDigits(s string, zero bool) (v int64, rest string, ok bool) {
	if s == "" || s[0] < '0' || s[0] > '9' {
		return 0, s, false
	}
	if s[0] == '0' {
		return 0, s[1:], zero
	}
	i := 0
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		c := int64(s[i] - '0')
		if v > (math.MaxInt64-c)/10 {
			return 0, s, false
		}
		v = v*10 + c
	}
	return v, s[i:], true
}

// den returns the denominator of a value in the int64 form.
func (x Q) den() int64 {
	if x.d == 0 {
		return 1
	}
	return x.d
}

// rat returns x as a *big.Rat the caller must not modify: its own
// value in big mode, else tmp set to x.
func (x Q) rat(tmp *big.Rat) *big.Rat {
	if x.r != nil {
		return x.r
	}
	return tmp.SetFrac64(x.n, x.den())
}

// fromRat takes ownership of r and returns its value, in the int64 form
// when it fits.
func fromRat(r *big.Rat) Q {
	num := r.Num()
	if !num.IsInt64() || num.Int64() == math.MinInt64 {
		return Q{r: r}
	}
	if r.Sign() == 0 {
		return Q{}
	}
	if r.IsInt() {
		return Q{n: num.Int64(), d: 1}
	}
	if den := r.Denom(); den.IsInt64() {
		return Q{n: num.Int64(), d: den.Int64()}
	}
	return Q{r: r}
}

// reduced returns n/d in lowest terms; d > 0 and neither part is
// math.MinInt64.
func reduced(n, d int64) Q {
	if n == 0 {
		return Q{}
	}
	g := int64(gcd(abs(n), uint64(d)))
	return Q{n: n / g, d: d / g}
}

// addSmall returns a/b + c/d for canonical fractions, reducing as Knuth
// (TAOCP 4.5.1) does so no intermediate is larger than needed; ok is
// false when a step overflows 63 bits.
func addSmall(a, b, c, d int64) (Q, bool) {
	g := int64(gcd(uint64(b), uint64(d)))
	if g == 1 {
		ad, ok1 := mul64(a, d)
		cb, ok2 := mul64(c, b)
		n, ok3 := add64(ad, cb)
		bd, ok4 := mul64(b, d)
		if !(ok1 && ok2 && ok3 && ok4) {
			return Q{}, false
		}
		if n == 0 {
			return Q{}, true
		}
		return Q{n: n, d: bd}, true
	}
	ad, ok1 := mul64(a, d/g)
	cb, ok2 := mul64(c, b/g)
	t, ok3 := add64(ad, cb)
	if !(ok1 && ok2 && ok3) {
		return Q{}, false
	}
	if t == 0 {
		return Q{}, true
	}
	g2 := int64(gcd(abs(t), uint64(g)))
	den, ok := mul64(b/g, d/g2)
	if !ok {
		return Q{}, false
	}
	return Q{n: t / g2, d: den}, true
}

// mulSmall returns (a/b)·(c/d) for canonical fractions, cancelling
// across before multiplying; ok is false on 63-bit overflow.
func mulSmall(a, b, c, d int64) (Q, bool) {
	if a == 0 || c == 0 {
		return Q{}, true
	}
	g1 := int64(gcd(abs(a), uint64(d)))
	g2 := int64(gcd(abs(c), uint64(b)))
	n, ok1 := mul64(a/g1, c/g2)
	den, ok2 := mul64(b/g2, d/g1)
	if !(ok1 && ok2) {
		return Q{}, false
	}
	return Q{n: n, d: den}, true
}

// mul64 returns a·b when its magnitude is below 2^63.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(abs(a), abs(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// add64 returns a+b when its magnitude is below 2^63.
func add64(a, b int64) (int64, bool) {
	s := a + b
	if (s > a) != (b > 0) || s == math.MinInt64 {
		return 0, false
	}
	return s, true
}

func abs(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// gcd is the binary gcd of two values, not both zero.
func gcd(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
	}
	return a << shift
}

func cmpInt[T int | uint64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
