package runcache

import (
	"math/big"
	"strings"
	"testing"
)

// FuzzParseBudget feeds arbitrary FLM_CACHE_BUDGET values to the
// parser. Whatever it accepts must be -1 (unbounded), DefaultBudget, or
// a non-negative byte count that is exactly the integer the input spells
// times one of the binary units — computed here in exact arithmetic, so
// a wrapped product cannot pass.
func FuzzParseBudget(f *testing.F) {
	for _, s := range []string{"", "unbounded", "-3", "0", "123", "64KiB", "10mb", "2G", " 5 MiB ", "12q", "8589934591g"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := ParseBudget(s)
		if !ok || got == -1 || got == DefaultBudget {
			return
		}
		if got < 0 {
			t.Fatalf("ParseBudget(%q) = %d: negative budgets other than -1 are never returned", s, got)
		}
		// An accepted count is ASCII digits around an optional sign, unit
		// and spaces, so its digits alone spell the integer.
		n, _ := new(big.Int).SetString("0"+strings.Map(func(r rune) rune {
			if r >= '0' && r <= '9' {
				return r
			}
			return -1
		}, s), 10)
		want := new(big.Int)
		for _, unit := range []int64{1, 1 << 10, 1 << 20, 1 << 30} {
			if want.Mul(n, big.NewInt(unit)).Cmp(big.NewInt(got)) == 0 {
				return
			}
		}
		t.Fatalf("ParseBudget(%q) = %d, which is not %s times a unit", s, got, n)
	})
}
