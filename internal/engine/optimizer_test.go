package engine

import (
	"math/rand"
	"testing"
)

// TestPushdownThroughUnion: a filter over a union distributes into both
// branches when the columns resolve on both sides.
func TestPushdownThroughUnion(t *testing.T) {
	cat := NewCatalog()
	cat.Put("a", testRel([]string{"v"}, [][]int64{{1}, {2}, {3}}))
	cat.Put("b", testRel([]string{"v"}, [][]int64{{2}, {4}}))
	p := Filter(Union(Scan("a"), Scan("b")), Cmp(GT, Col("v"), ConstInt(2)))
	opt, err := Optimize(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, stillFilter := opt.(*FilterPlan); stillFilter {
		t.Fatalf("filter should distribute over union:\n%s", mustExplain(t, opt, cat))
	}
	out, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 { // 3 from a, 4 from b
		t.Fatalf("want 2 rows, got %d", out.Len())
	}
}

// TestPushdownThroughDistinctAndSort: filters commute with distinct and
// sort.
func TestPushdownThroughDistinctAndSort(t *testing.T) {
	cat := NewCatalog()
	cat.Put("a", testRel([]string{"v"}, [][]int64{{1}, {1}, {2}, {3}}))
	for _, p := range []Plan{
		Filter(DistinctOf(Scan("a")), Cmp(GE, Col("v"), ConstInt(2))),
		Filter(Sort(Scan("a"), "v"), Cmp(GE, Col("v"), ConstInt(2))),
	} {
		opt, err := Optimize(p, cat)
		if err != nil {
			t.Fatal(err)
		}
		if _, stillFilter := opt.(*FilterPlan); stillFilter {
			t.Fatalf("filter should push below:\n%s", mustExplain(t, opt, cat))
		}
		a, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatal(err)
		}
		if !a.EqualAsSet(b) {
			t.Fatal("pushdown changed semantics")
		}
	}
}

// TestPruneColumnsKeepsSemantics: column pruning around joins never
// changes results, including for semi/anti joins.
func TestPruneColumnsKeepsSemantics(t *testing.T) {
	cat := planCatalog()
	plans := []Plan{
		Project(Join(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")), "c.name"),
		Project(Semi(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")), "c.name"),
		Project(Anti(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")), "c.name"),
	}
	for i, p := range plans {
		opt, err := Optimize(p, cat)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		a, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		b, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if !a.EqualAsBag(b) {
			t.Fatalf("plan %d: pruning changed semantics", i)
		}
	}
}

// TestJoinOrderRandomized: random star-join plans keep their semantics
// through optimization (schema order included).
func TestJoinOrderRandomized(t *testing.T) {
	cat := planCatalog()
	rng := rand.New(rand.NewSource(13))
	tables := []struct{ name, key string }{
		{"customer", "c.custkey"},
		{"orders", "o.custkey"},
	}
	_ = tables
	for iter := 0; iter < 20; iter++ {
		// Random permutation of a 3-way join with a random filter.
		j := Join(Join(Scan("orders"), Scan("customer"), EqCols("o.custkey", "c.custkey")),
			Scan("nation"), EqCols("c.nationkey", "n.nationkey"))
		var p Plan = j
		if rng.Intn(2) == 0 {
			p = Filter(p, Cmp(EQ, Col("n.nationkey"), ConstInt(int64(rng.Intn(5)))))
		}
		if rng.Intn(2) == 0 {
			p = Project(p, "o.orderkey", "n.name")
		}
		opt, err := Optimize(p, cat)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatal(err)
		}
		if !a.EqualAsBag(b) {
			t.Fatalf("iter %d: optimization changed semantics", iter)
		}
	}
}

func TestStringHelpers(t *testing.T) {
	if !sameStrings([]string{"a", "b"}, []string{"a", "b"}) ||
		sameStrings([]string{"a"}, []string{"b"}) ||
		sameStrings([]string{"a"}, []string{"a", "b"}) {
		t.Fatal("sameStrings")
	}
	if !uniqueStrings([]string{"a", "b"}) || uniqueStrings([]string{"a", "a"}) {
		t.Fatal("uniqueStrings")
	}
}

// TestOptimizeIsSchemaPreserving: the contract core.Translate depends
// on — Optimize never changes the output schema.
func TestOptimizeIsSchemaPreserving(t *testing.T) {
	cat := planCatalog()
	plans := []Plan{
		Join(Join(Scan("orders"), Scan("customer"), EqCols("o.custkey", "c.custkey")),
			Scan("nation"), EqCols("c.nationkey", "n.nationkey")),
		Filter(Join(Scan("customer"), Scan("nation"), EqCols("c.nationkey", "n.nationkey")),
			Cmp(EQ, Col("n.name"), ConstStr("N0"))),
	}
	for i, p := range plans {
		before, err := p.Schema(cat)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Optimize(p, cat)
		if err != nil {
			t.Fatal(err)
		}
		after, err := opt.Schema(cat)
		if err != nil {
			t.Fatal(err)
		}
		if !before.Equal(after) {
			t.Fatalf("plan %d: schema changed: %v -> %v", i, before.Names(), after.Names())
		}
	}
}

// TestGreedyJoinIgnoresPsiOnlyLinks: a leaf linked to the join tree
// only by a ψ consistency disjunction (d.v <> d'.v OR d.r = d'.r) is
// not connected, even when its estimated cross product is smaller than
// the equi-join with another leaf — joining it first would run a
// nested-loop cross product.
func TestGreedyJoinIgnoresPsiOnlyLinks(t *testing.T) {
	var aRows, bRows, cRows [][]int64
	for i := int64(0); i < 10; i++ {
		aRows = append(aRows, []int64{i, i % 3, i % 2})
	}
	for i := int64(0); i < 1000; i++ {
		bRows = append(bRows, []int64{i % 10, i})
	}
	for i := int64(0); i < 50; i++ {
		cRows = append(cRows, []int64{i * 20, i % 3, i % 2})
	}
	a := Values(testRel([]string{"a.k", "a.v", "a.r"}, aRows), "a")
	b := Values(testRel([]string{"b.k", "b.j"}, bRows), "b")
	c := Values(testRel([]string{"c.j", "c.v", "c.r"}, cRows), "c")
	psi := Or(Cmp(NE, Col("a.v"), Col("c.v")), EqCols("a.r", "c.r"))
	p := Join(Join(a, c, psi), b, And(EqCols("a.k", "b.k"), EqCols("b.j", "c.j")))

	cat := NewCatalog()
	// The trap: a × c under ψ (10·50·0.9 = 450) is estimated below
	// a ⋈ b (10·1000/10 = 1000).
	if cross, equi := EstimateStats(Join(a, c, psi), cat).Rows, EstimateStats(Join(a, b, EqCols("a.k", "b.k")), cat).Rows; cross >= equi {
		t.Fatalf("test premise: ψ-only cross product estimated at %v, equi-join at %v", cross, equi)
	}
	opt, err := Optimize(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	var check func(q Plan)
	check = func(q Plan) {
		if j, ok := q.(*JoinPlan); ok {
			ls, _ := j.L.Schema(cat)
			rs, _ := j.R.Schema(cat)
			if pairs, _ := ExtractEquiJoin(j.Cond, ls, rs); len(pairs) == 0 {
				t.Fatalf("optimized plan joins without an equi-join pair:\n%s", mustExplain(t, opt, cat))
			}
		}
		for _, ch := range q.Children() {
			check(ch)
		}
	}
	check(opt)
	got, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsBag(want) {
		t.Fatal("join reordering changed the result")
	}
}
