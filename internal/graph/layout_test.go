package graph

import (
	"reflect"
	"strings"
	"testing"
)

// Every partition and cut check the provers rely on, in one table;
// wantErr names the check that must fire ("" = valid).
func TestLayoutValidation(t *testing.T) {
	k4, k5, k6, dia := Complete(4), Complete(5), Complete(6), Diamond()
	partition := func(g *Graph, f int, a, b, c []int) func() error {
		return func() error { _, err := NewPartition(g, f, a, b, c); return err }
	}
	cut := func(g *Graph, f int, b, d []int, u, v int) func() error {
		return func() error { _, err := NewCut(g, f, b, d, u, v); return err }
	}
	tests := []struct {
		name    string
		check   func() error
		wantErr string
	}{
		{"partition/triangle", partition(Triangle(), 1, []int{0}, []int{1}, []int{2}), ""},
		{"partition/K6", partition(k6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5}), ""},
		{"partition/uneven", partition(k5, 2, []int{0, 1}, []int{2, 3}, []int{4}), ""},
		{"partition/empty", partition(k4, 3, nil, []int{0, 1, 2}, []int{3}), "block a is empty"},
		{"partition/overlapping", partition(k4, 3, []int{0, 1}, []int{1, 2}, []int{3}), "in two partition blocks"},
		{"partition/out-of-range", partition(k4, 3, []int{9}, []int{0, 1, 2}, []int{3}), "out of range"},
		{"partition/uncovered", partition(k4, 3, []int{0}, []int{1}, []int{2}), "not covered"},
		{"partition/oversize-block", partition(k5, 2, []int{0, 1, 2}, []int{3}, []int{4}), "block a has 3 > f = 2"},
		{"partition/adequate", partition(k4, 1, []int{0}, []int{1}, []int{2, 3}), "not inadequate by node count"},
		{"cut/diamond", cut(dia, 1, []int{1}, []int{3}, 0, 2), ""},
		{"cut/circulant", cut(Circulant(10, 1, 2), 2, []int{1, 9}, []int{2, 8}, 0, 5), ""},
		{"cut/articulation", cut(Line(3), 1, []int{1}, nil, 0, 2), ""},
		{"cut/non-separating", cut(dia, 1, []int{1}, nil, 0, 2), "does not separate"},
		{"cut/overlapping", cut(dia, 1, []int{1}, []int{1}, 0, 2), "overlap"},
		{"cut/duplicate", cut(dia, 2, []int{1, 1}, []int{3}, 0, 2), "duplicate cut node"},
		{"cut/endpoint-inside", cut(dia, 1, []int{0}, []int{2}, 0, 1), "outside the cut"},
		{"cut/out-of-range", cut(dia, 1, []int{7}, []int{3}, 0, 2), "out of range"},
		{"cut/oversize", cut(dia, 1, []int{1, 2}, []int{3}, 0, 2), "cut half has 2 > f = 1"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.check()
			switch {
			case tt.wantErr == "" && err != nil:
				t.Fatalf("valid layout rejected: %v", err)
			case tt.wantErr != "" && err == nil:
				t.Fatalf("accepted; want an error containing %q", tt.wantErr)
			case tt.wantErr != "" && !strings.Contains(err.Error(), tt.wantErr):
				t.Fatalf("error %q does not contain %q", err, tt.wantErr)
			}
		})
	}
}

func TestCutSides(t *testing.T) {
	tests := []struct {
		g            *Graph
		b, d         []int
		u, v         int
		wantA, wantC []int
	}{
		{Diamond(), []int{1}, []int{3}, 0, 2, []int{0}, []int{2}},
		{Circulant(10, 1, 2), []int{1, 9}, []int{2, 8}, 0, 5, []int{0}, []int{3, 4, 5, 6, 7}},
		{Circulant(10, 1, 2), []int{1, 9}, []int{2, 8}, 5, 0, []int{3, 4, 5, 6, 7}, []int{0}},
	}
	for _, tt := range tests {
		c, err := NewCut(tt.g, 2, tt.b, tt.d, tt.u, tt.v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.A, tt.wantA) || !reflect.DeepEqual(c.C, tt.wantC) {
			t.Errorf("cut %v/%v from %d: sides A=%v C=%v, want %v and %v", tt.b, tt.d, tt.u, c.A, c.C, tt.wantA, tt.wantC)
		}
	}
}

// Adjacent ring positions hold adjacent blocks: every S-node's
// neighbors sit at its own position or one step around the ring.
func TestBlockRingPositions(t *testing.T) {
	g := Complete(5)
	p, err := NewPartition(g, 2, []int{0, 1}, []int{2, 3}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	const positions = 9
	r := p.BlockRing(positions)
	if err := r.Cover.Verify(); err != nil {
		t.Fatal(err)
	}
	wantSizes := []int{2, 2, 1}
	for j, members := range r.Members {
		if len(members) != wantSizes[j%3] {
			t.Errorf("position %d has %d members, want %d", j, len(members), wantSizes[j%3])
		}
		for _, s := range members {
			if r.Position[s] != j {
				t.Errorf("S-node %s listed at %d but positioned at %d", r.Cover.S.Name(s), j, r.Position[s])
			}
			for _, nb := range r.Cover.S.Neighbors(s) {
				if step := (r.Position[nb] - j + positions) % positions; step > 1 && step < positions-1 {
					t.Errorf("%s at %d adjacent to %s at %d", r.Cover.S.Name(s), j, r.Cover.S.Name(nb), r.Position[nb])
				}
			}
		}
	}
}
