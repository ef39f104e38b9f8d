package ws

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewVarAndDomains(t *testing.T) {
	w := NewWorldTable()
	x := w.MustNewVar("x", 1, 2)
	y := w.NewBoolVar("y")
	if w.DomainSize(x) != 2 || w.DomainSize(y) != 2 {
		t.Fatal("domain sizes")
	}
	if !w.Has(x, 1) || w.Has(x, 3) {
		t.Fatal("Has")
	}
	if w.Name(x) != "x" {
		t.Fatal("name")
	}
	if _, err := w.NewVar("bad", nil); err == nil {
		t.Fatal("empty domain must fail")
	}
	if _, err := w.NewVar("dup", []Val{1, 1}); err == nil {
		t.Fatal("duplicate domain value must fail")
	}
	if got := len(w.NontrivialVars()); got != 2 {
		t.Fatalf("want 2 nontrivial vars, got %d", got)
	}
	if got := len(w.Vars()); got != 3 {
		t.Fatalf("want 3 vars incl trivial, got %d", got)
	}
}

func TestWorldCounts(t *testing.T) {
	w := NewWorldTable()
	w.NewBoolVar("x")
	w.NewBoolVar("y")
	w.NewBoolVar("z")
	if w.NumWorlds().Int64() != 8 {
		t.Fatalf("want 8 worlds, got %v", w.NumWorlds())
	}
	if math.Abs(w.Log10Worlds()-math.Log10(8)) > 1e-12 {
		t.Fatal("log10 worlds")
	}
	if w.MaxDomainSize() != 2 {
		t.Fatal("max domain size")
	}
	n, err := w.CountWorlds(100)
	if err != nil || n != 8 {
		t.Fatal("CountWorlds")
	}
	if _, err := w.CountWorlds(7); err == nil {
		t.Fatal("CountWorlds must respect the cap")
	}
}

func TestAllWorlds(t *testing.T) {
	w := NewWorldTable()
	x := w.MustNewVar("x", 1, 2)
	y := w.MustNewVar("y", 1, 2, 3)
	count := 0
	seen := map[[2]Val]bool{}
	w.AllWorlds(func(f Valuation) bool {
		count++
		if !w.Total(f) {
			t.Fatal("world must be total")
		}
		seen[[2]Val{f[x], f[y]}] = true
		return true
	})
	if count != 6 || len(seen) != 6 {
		t.Fatalf("want 6 distinct worlds, got %d/%d", count, len(seen))
	}
	// Early stop.
	count = 0
	w.AllWorlds(func(Valuation) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop at 3, got %d", count)
	}
}

func TestDescriptorBasics(t *testing.T) {
	d := MustDescriptor(A(3, 1), A(1, 2))
	if d[0].Var != 1 || d[1].Var != 3 {
		t.Fatal("descriptor must sort by var")
	}
	if v, ok := d.Lookup(3); !ok || v != 1 {
		t.Fatal("lookup")
	}
	if _, ok := d.Lookup(2); ok {
		t.Fatal("lookup missing")
	}
	if _, err := NewDescriptor(A(1, 1), A(1, 2)); err == nil {
		t.Fatal("contradiction must fail")
	}
	// Duplicates collapse.
	d2 := MustDescriptor(A(1, 1), A(1, 1))
	if len(d2) != 1 {
		t.Fatal("duplicates must collapse")
	}
}

func TestDescriptorConsistency(t *testing.T) {
	d := MustDescriptor(A(1, 1), A(2, 2))
	e := MustDescriptor(A(2, 2), A(3, 1))
	f := MustDescriptor(A(2, 1))
	if !d.ConsistentWith(e) {
		t.Fatal("d and e agree on shared var 2")
	}
	if d.ConsistentWith(f) {
		t.Fatal("d and f disagree on var 2")
	}
	u, ok := d.Union(e)
	if !ok || len(u) != 3 {
		t.Fatalf("union: %v %v", u, ok)
	}
	if _, ok := d.Union(f); ok {
		t.Fatal("inconsistent union must fail")
	}
	// Empty descriptor is consistent with everything.
	var empty Descriptor
	if !empty.ConsistentWith(d) || !d.ConsistentWith(empty) {
		t.Fatal("empty descriptor consistency")
	}
}

func TestDescriptorExtendedBy(t *testing.T) {
	d := MustDescriptor(A(1, 1))
	if !d.ExtendedBy(Valuation{1: 1, 2: 5}) {
		t.Fatal("should extend")
	}
	if d.ExtendedBy(Valuation{1: 2}) {
		t.Fatal("wrong value")
	}
	if d.ExtendedBy(Valuation{2: 1}) {
		t.Fatal("unassigned var")
	}
	var empty Descriptor
	if !empty.ExtendedBy(Valuation{}) {
		t.Fatal("empty descriptor extended by everything")
	}
}

func TestDescriptorPad(t *testing.T) {
	d := MustDescriptor(A(1, 1))
	if d.PaddedAt(0, 3) != A(1, 1) || d.PaddedAt(1, 3) != A(1, 1) || d.PaddedAt(2, 3) != A(1, 1) {
		t.Fatalf("pad repeats assignments: %v %v %v", d.PaddedAt(0, 3), d.PaddedAt(1, 3), d.PaddedAt(2, 3))
	}
	two := MustDescriptor(A(1, 1), A(2, 0))
	if two.PaddedAt(1, 4) != A(2, 0) || two.PaddedAt(3, 4) != A(1, 1) {
		t.Fatalf("pad repeats the first assignment: %v %v", two.PaddedAt(1, 4), two.PaddedAt(3, 4))
	}
	var empty Descriptor
	if pe := empty.PaddedAt(1, 2); pe.Var != TrivialVar || empty.PaddedAt(0, 2).Var != TrivialVar {
		t.Fatalf("empty pads with trivial: %v", pe)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("pad below size must panic")
		}
	}()
	two.PaddedAt(0, 1)
}

func TestConsistencyUnionAgree(t *testing.T) {
	// Property: Union succeeds iff ConsistentWith, and the union is
	// extended exactly by valuations extending both.
	f := func(a1, v1, a2, v2, a3, v3 uint8) bool {
		d := MustDescriptor(A(Var(a1%3+1), Val(v1%2)), A(Var(a2%3+1), Val(v1%2)))
		e := MustDescriptor(A(Var(a3%3+1), Val(v3%2)))
		u, ok := d.Union(e)
		if ok != d.ConsistentWith(e) {
			return false
		}
		if !ok {
			return true
		}
		val := Valuation{1: Val(v1 % 2), 2: Val(v2 % 2), 3: Val(v3 % 2)}
		return u.ExtendedBy(val) == (d.ExtendedBy(val) && e.ExtendedBy(val))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProbabilities(t *testing.T) {
	w := NewWorldTable()
	x := w.MustNewVar("x", 1, 2)
	if w.Prob(x, 1) != 0.5 {
		t.Fatal("uniform default")
	}
	if err := w.SetProbs(x, []float64{0.3, 0.7}); err != nil {
		t.Fatal(err)
	}
	if w.Prob(x, 2) != 0.7 {
		t.Fatal("explicit prob")
	}
	if err := w.SetProbs(x, []float64{0.5, 0.6}); err == nil {
		t.Fatal("probs must sum to 1")
	}
	if err := w.SetProbs(x, []float64{1}); err == nil {
		t.Fatal("length mismatch must fail")
	}
	d := MustDescriptor(A(x, 1))
	if math.Abs(d.Prob(w)-0.3) > 1e-12 {
		t.Fatal("descriptor prob")
	}
}

func TestSampleWorldDistribution(t *testing.T) {
	w := NewWorldTable()
	x := w.MustNewVar("x", 1, 2)
	if err := w.SetProbs(x, []float64{0.2, 0.8}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	n1 := 0
	const N = 20000
	for i := 0; i < N; i++ {
		if w.SampleWorld(rng)[x] == 1 {
			n1++
		}
	}
	frac := float64(n1) / N
	if math.Abs(frac-0.2) > 0.02 {
		t.Fatalf("sampled frequency %.3f far from 0.2", frac)
	}
}

func TestWorldProb(t *testing.T) {
	w := NewWorldTable()
	x := w.MustNewVar("x", 1, 2)
	y := w.MustNewVar("y", 1, 2)
	total := 0.0
	w.AllWorlds(func(f Valuation) bool {
		total += w.WorldProb(f)
		return true
	})
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("world probabilities must sum to 1, got %g", total)
	}
	_ = x
	_ = y
}

func TestWorldTableRelation(t *testing.T) {
	w := NewWorldTable()
	w.MustNewVar("x", 1, 2)
	rel := w.Relation()
	// trivial(1) + x(2) rows
	if rel.Len() != 3 {
		t.Fatalf("W relation rows: %d", rel.Len())
	}
	if rel.Sch.Names()[0] != "w.var" {
		t.Fatal("W schema")
	}
}

func TestCloneIndependence(t *testing.T) {
	w := NewWorldTable()
	x := w.MustNewVar("x", 1, 2)
	c := w.Clone()
	c.MustNewVar("y", 1, 2, 3)
	if len(w.NontrivialVars()) != 1 {
		t.Fatal("clone must not affect original")
	}
	if c.DomainSize(x) != 2 {
		t.Fatal("clone keeps domains")
	}
	if w.SizeBytes() <= 0 {
		t.Fatal("SizeBytes")
	}
}

func TestDescriptorStrings(t *testing.T) {
	w := NewWorldTable()
	x := w.MustNewVar("x", 1, 2)
	d := MustDescriptor(A(x, 1))
	if d.String() == "" || d.StringNamed(w) != "{x->1}" {
		t.Fatalf("render: %s / %s", d, d.StringNamed(w))
	}
	var empty Descriptor
	if empty.String() != "{}" {
		t.Fatal("empty render")
	}
	if TrivialVar.String() != "⊤" || Var(3).String() != "c3" {
		t.Fatal("var render")
	}
	if !d.ValidIn(w) {
		t.Fatal("ValidIn")
	}
	bad := MustDescriptor(A(x, 9))
	if bad.ValidIn(w) {
		t.Fatal("ValidIn must reject values outside W")
	}
}
