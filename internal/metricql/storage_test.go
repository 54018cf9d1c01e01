package metricql

import (
	"math"
	"slices"
	"testing"
)

// diffPanel steps one engine's bound panel of exprs through a script —
// set moves a source to step k — and compares every value, bit for bit,
// with a fresh engine per expression stepped alone through the same
// script on a source of its own. Each node of the panel writes into
// storage it owns and shares nodes with the other queries, so a value
// that saw another node's or a later step's writes differs here. The
// Vals copied at each step must still equal that step's reference after
// the next step: copying Vals is all a caller keeping a value needs.
func diffPanel[S Source](t *testing.T, mk func() S, set func(S, int), steps int, exprs []string) {
	t.Helper()
	bind := func(src S, exprs ...string) (*Engine, []*Query) {
		t.Helper()
		names, err := src.Names()
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(src)
		e.AliasAll(NestAliases(names))
		qs := make([]*Query, len(exprs))
		for i, expr := range exprs {
			if qs[i], err = e.Query(expr); err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
		}
		return e, qs
	}
	// fresh is expr's value at step k on an engine that evaluated
	// nothing else.
	fresh := func(expr string, k int) (Value, bool) {
		src := mk()
		_, qs := bind(src, expr)
		var v Value
		var err error
		for j := 0; j <= k; j++ {
			set(src, j)
			if v, err = qs[0].Eval(); err != nil && partialOf(err) == nil {
				t.Fatalf("fresh %s at step %d: %v", expr, j, err)
			}
		}
		return Value{Names: v.Names, Vals: slices.Clone(v.Vals)}, err != nil
	}
	same := func(a, b Value) bool {
		return slices.Equal(a.Names, b.Names) && slices.EqualFunc(a.Vals, b.Vals, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
	}

	src := mk()
	e, qs := bind(src, exprs...)
	var kept, keptWant []Value // the previous step's copies and references
	for k := 0; k < steps; k++ {
		set(src, k)
		got, err := e.EvalAll(qs...)
		if err != nil && partialOf(err) == nil {
			t.Fatalf("step %d: %v", k, err)
		}
		want := make([]Value, len(exprs))
		for i, expr := range exprs {
			var partial bool
			want[i], partial = fresh(expr, k)
			if partial != (err != nil) || !same(got[i], want[i]) {
				t.Errorf("step %d: %s = %v (partial %v), a fresh engine reads %v (partial %v)",
					k, expr, got[i], err != nil, want[i], partial)
			}
		}
		for i := range kept {
			if !same(kept[i], keptWant[i]) {
				t.Errorf("step %d: the copy of %s from step %d became %v, want %v", k, exprs[i], k-1, kept[i], keptWant[i])
			}
		}
		kept = kept[:0]
		for _, v := range got {
			kept = append(kept, Value{Names: v.Names, Vals: slices.Clone(v.Vals)})
		}
		keptWant = want
	}
}

// TestNodeStorageMatchesFreshEngine: a panel with a subexpression two
// queries share, x + x, scalar-vector and scalar-scalar arithmetic,
// rate and delta, and ring windows over a bare and a composed argument,
// stepped with a repeated timestamp (the memo serves, last values move)
// among fresh ones, reads what a fresh engine per expression reads.
func TestNodeStorageMatchesFreshEngine(t *testing.T) {
	set := func(f *fakeSource, k int) {
		f.ts = int64(k) * 1_000_000_000
		if k%5 == 3 {
			f.ts -= 1_000_000_000 // the daemon has not resampled
		}
		for id := uint32(1); id <= 4; id++ {
			f.vals[id] = uint64(k*k)*7*uint64(id) + uint64(k)*1000
		}
		f.vals[5] = uint64(10 + k%4)
	}
	diffPanel(t, newFake, set, 12, []string{
		"rate(nest.mba*.read_bytes)",
		"sum(rate(nest.mba*.read_bytes))",
		"sum(rate(nest.mba*.read_bytes)) + sum(rate(nest.mba*.write_bytes))",
		"rate(nest.mba*.read_bytes) + rate(nest.mba*.read_bytes)",
		"kernel.load + kernel.load",
		"2 * delta(nest.mba*.read_bytes)",
		"nest.mba*.read_bytes / 4",
		"-nest.mba0.read_bytes.cpu*",
		"min(nest.mba*.read_bytes) * sum(rate(nest.mba*.read_bytes))",
		"avg_over(rate(nest.mba0.read_bytes), 3s)",
		"max_over(nest.mba*.read_bytes, 2s)",
		"rate_over(nest.mba*.read_bytes, 3s) - rate(nest.mba*.read_bytes)",
	})
}

// TestNodeStorageFollowsDownSet: over a federated source whose down set
// shrinks the vectors (once at a repeated timestamp) and then grows them
// back, every value — grouped, ringed, elementwise — reads what a fresh
// engine per expression reads.
func TestNodeStorageFollowsDownSet(t *testing.T) {
	set := func(f *fedSource, k int) {
		f.ts = int64(k) * 1_000_000_000
		if k == 5 {
			f.ts -= 1_000_000_000 // a second node drops within one sample
		}
		for id := range f.vals {
			f.vals[id] = uint64(id)*10 + uint64(k*3)*uint64(id)
		}
		clear(f.down)
		switch {
		case k == 3 || k == 4:
			f.down["node002"] = true
		case k == 5:
			f.down["node002"], f.down["node001"] = true, true
		case k == 8:
			f.down["node003"] = true
		}
	}
	diffPanel(t, newFed, set, 11, []string{
		"mem.read_bw",
		"sum(mem.read_bw) by (node)",
		"max(mem.*_bw) by (node) * 2",
		"rate(mem.read_bw)",
		"rate(mem.read_bw) + rate(mem.read_bw)",
		"mem.read_bw - mem.write_bw",
		"10 / mem.write_bw",
		"sum(mem.*_bw)",
		"avg_over(mem.read_bw, 3s)",
		"max_over(rate(mem.write_bw), 2s)",
	})
}
