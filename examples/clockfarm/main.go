// Clock farm: three machines with drifting hardware clocks (one running
// up to 1.5x faster than real time) want their logical clocks closer
// together than the drift allows. FLM85 Theorem 8 says that with a
// possible Byzantine fault among three nodes, nothing beats the trivial
// no-communication strategy "run your logical clock at the lower
// envelope" — and this program watches the engine defeat two smarter
// strategies on the scaled ring covering.
package main

import (
	"fmt"
	"log"

	"flm"
)

func main() {
	params := flm.SyncParams{
		P:      flm.RatIdentity(),                // slow clock law: p(t) = t
		Q:      flm.NewRatClock(3, 2, 0, 1),      // fast clock law: q(t) = 1.5t
		L:      flm.LinearClock{Rate: 1},         // lower envelope l(t) = t
		U:      flm.LinearClock{Rate: 1, Off: 4}, // upper envelope u(t) = t + 4
		Alpha:  1.5,                              // claimed improvement over trivial sync
		TPrime: flm.NewRat(4, 1),
		Delta:  flm.NewRat(1, 2),
	}
	fmt.Printf("clock laws: p(t)=t (slow), q(t)=1.5t (fast); envelopes [t, t+4]\n")
	fmt.Printf("the trivial device C = l(D) synchronizes to l(q(t))-l(p(t)) = 0.5t:\n")
	for _, tv := range []float64{4, 8, 16} {
		fmt.Printf("  at t=%2.0f the trivial gap is %.2f\n", tv, params.TrivialGap(tv))
	}
	fmt.Printf("\nclaim under test: some devices synchronize %.1f closer than trivial, forever.\n", params.Alpha)

	devices := []struct {
		name    string
		builder flm.SyncBuilder
	}{
		{"trivial lower-envelope", flm.NewTrivialClock(params.L)},
		{"chase-the-fastest", flm.NewChaseClock(params.L)},
		{"midpoint averaging", flm.NewMidpointClock(params.L)},
	}
	for _, d := range devices {
		builders := map[string]flm.SyncBuilder{"a": d.builder, "b": d.builder, "c": d.builder}
		res, err := flm.ProveClockSync(params, builders)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- %s ---\n", d.name)
		fmt.Printf("ring of %d machines, clocks q·h⁻ⁱ (each node fast vs one neighbor, slow vs the other)\n", res.K+2)
		fmt.Printf("logical clocks at t'' = h^%d(t') = %s:\n", res.K, res.TSecond)
		for i, c := range res.Logical {
			fmt.Printf("  machine %d: C = %10.4f\n", i, c)
		}
		fmt.Printf("violated conditions (%d):\n", len(res.Violations))
		for i, v := range res.Violations {
			if i == 3 {
				fmt.Printf("  ... and %d more\n", len(res.Violations)-3)
				break
			}
			fmt.Printf("  %s\n", v)
		}
	}

	// Corollary 15: even logarithmic logical clocks cannot beat log2(r).
	c15 := flm.Corollary15(4, 1, 2.5, flm.NewRat(8, 1))
	fmt.Printf("\nCorollary 15 (l = log2, q = 4t): the best constant is log2(4) = %.0f\n", c15.TrivialGap(100))
	res, err := flm.ProveClockSync(c15, map[string]flm.SyncBuilder{
		"a": flm.NewTrivialClock(c15.L), "b": flm.NewTrivialClock(c15.L), "c": flm.NewTrivialClock(c15.L),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("claiming %.1f closer is defeated with %d violations (first: %s)\n",
		c15.Alpha, len(res.Violations), res.Violations[0])
}
