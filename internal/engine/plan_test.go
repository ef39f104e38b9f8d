package engine

import (
	"strings"
	"testing"
)

func planCatalog() *Catalog {
	cat := NewCatalog()
	cust := NewRelation(NewSchema(
		Column{Name: "c.custkey", Kind: KindInt},
		Column{Name: "c.name", Kind: KindString},
		Column{Name: "c.nationkey", Kind: KindInt},
	))
	for i := int64(0); i < 50; i++ {
		name := "Cust" + string(rune('A'+i%26))
		cust.Append(Tuple{Int(i), Str(name), Int(i % 5)})
	}
	ord := NewRelation(NewSchema(
		Column{Name: "o.orderkey", Kind: KindInt},
		Column{Name: "o.custkey", Kind: KindInt},
		Column{Name: "o.total", Kind: KindInt},
	))
	for i := int64(0); i < 200; i++ {
		ord.Append(Tuple{Int(i), Int(i % 50), Int(i * 10)})
	}
	nat := NewRelation(NewSchema(
		Column{Name: "n.nationkey", Kind: KindInt},
		Column{Name: "n.name", Kind: KindString},
	))
	for i := int64(0); i < 5; i++ {
		nat.Append(Tuple{Int(i), Str("N" + string(rune('0'+i)))})
	}
	cat.Put("customer", cust)
	cat.Put("orders", ord)
	cat.Put("nation", nat)
	return cat
}

func TestRunSimplePlan(t *testing.T) {
	cat := planCatalog()
	p := Project(
		Filter(Scan("orders"), Cmp(GT, Col("o.total"), ConstInt(1900))),
		"o.orderkey")
	out, err := RunDefault(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 9 { // totals 1910..1990
		t.Fatalf("want 9 rows, got %d", out.Len())
	}
}

func TestJoinPlanOptimizedMatchesUnoptimized(t *testing.T) {
	cat := planCatalog()
	p := Project(
		Filter(
			Join(Join(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")),
				Scan("nation"), EqCols("c.nationkey", "n.nationkey")),
			And(Cmp(GT, Col("o.total"), ConstInt(500)), Cmp(EQ, Col("n.name"), ConstStr("N1")))),
		"o.orderkey", "c.name")
	opt, err := Run(p, cat, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if !opt.EqualAsBag(raw) {
		t.Fatalf("optimizer changed the result: %d vs %d rows", opt.Len(), raw.Len())
	}
	if opt.Len() == 0 {
		t.Fatal("expected non-empty result")
	}
}

func TestJoinPhysicalConfigsAgree(t *testing.T) {
	cat := planCatalog()
	p := Join(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey"))
	var results []*Relation
	for _, algo := range []JoinAlgo{JoinHash, JoinMerge, JoinNestedLoop} {
		out, err := Run(p, cat, ExecConfig{Join: algo})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, out)
	}
	if !results[0].EqualAsBag(results[1]) || !results[0].EqualAsBag(results[2]) {
		t.Fatal("physical join algorithms disagree")
	}
	if results[0].Len() != 200 {
		t.Fatalf("every order joins exactly once: got %d", results[0].Len())
	}
}

func TestSelfJoinWithRename(t *testing.T) {
	cat := planCatalog()
	n1 := Rename(Scan("nation"), []string{"n1.nationkey", "n1.name"})
	n2 := Rename(Scan("nation"), []string{"n2.nationkey", "n2.name"})
	p := Filter(Join(n1, n2, nil), Cmp(LT, Col("n1.nationkey"), Col("n2.nationkey")))
	out, err := RunDefault(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 { // C(5,2)
		t.Fatalf("want 10 pairs, got %d", out.Len())
	}
}

func TestUnionDiffIntersectPlans(t *testing.T) {
	cat := planCatalog()
	a := Project(Scan("customer"), "c.nationkey")
	b := Project(Scan("nation"), "n.nationkey")
	u, err := RunDefault(DistinctOf(Union(a, b)), cat)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 5 {
		t.Fatalf("distinct union: want 5, got %d", u.Len())
	}
	d, err := RunDefault(Diff(b, a), cat)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("diff: want 0, got %d", d.Len())
	}
	i, err := RunDefault(Intersect(b, a), cat)
	if err != nil {
		t.Fatal(err)
	}
	if i.Len() != 5 {
		t.Fatalf("intersect: want 5, got %d", i.Len())
	}
}

func TestAggPlan(t *testing.T) {
	cat := planCatalog()
	p := Agg(Scan("orders"), []string{"o.custkey"}, AggSpec{Fn: AggCount, As: "n"})
	out, err := RunDefault(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 50 {
		t.Fatalf("want 50 groups, got %d", out.Len())
	}
	for _, row := range out.Rows {
		if row[1].AsInt() != 4 {
			t.Fatalf("each customer has 4 orders, got %v", row)
		}
	}
}

func TestSortLimitPlan(t *testing.T) {
	cat := planCatalog()
	p := Limit(Sort(Scan("orders"), "o.total"), 3)
	out, err := RunDefault(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 || out.Rows[0][2].AsInt() != 0 {
		t.Fatalf("sort+limit wrong: %v", out.Rows)
	}
}

func TestValuesPlan(t *testing.T) {
	cat := NewCatalog()
	rel := testRel([]string{"a"}, [][]int64{{1}, {2}})
	out, err := RunDefault(Values(rel, "tmp"), cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatal("values plan scan")
	}
}

func TestOptimizerPushesFilterBelowJoin(t *testing.T) {
	cat := planCatalog()
	p := Filter(
		Join(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")),
		Cmp(EQ, Col("c.name"), ConstStr("CustA")))
	opt, err := Optimize(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	// After pushdown the top node should be the join (possibly wrapped
	// in projections), not the filter.
	if _, isFilter := opt.(*FilterPlan); isFilter {
		t.Fatalf("filter was not pushed below the join:\n%s", mustExplain(t, opt, cat))
	}
	out, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.EqualAsBag(want) {
		t.Fatal("pushdown changed semantics")
	}
}

func mustExplain(t *testing.T, p Plan, cat *Catalog) string {
	t.Helper()
	s, err := Explain(p, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExplainOutput(t *testing.T) {
	cat := planCatalog()
	p := Project(
		Filter(
			Join(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")),
			Cmp(GT, Col("o.total"), ConstInt(100))),
		"c.name")
	s, err := Explain(p, cat, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "Hash Join") {
		t.Errorf("explain should pick a hash join:\n%s", s)
	}
	if !strings.Contains(s, "Hash Cond") {
		t.Errorf("explain should print the hash condition:\n%s", s)
	}
	if !strings.Contains(s, "Seq Scan on orders") {
		t.Errorf("explain should show scans:\n%s", s)
	}
}

func TestJoinOrderingPrefersSelective(t *testing.T) {
	cat := planCatalog()
	// nation is tiny and has a selective filter; the greedy orderer
	// should start from it rather than orders.
	p := Filter(
		Join(Join(Scan("orders"), Scan("customer"), EqCols("o.custkey", "c.custkey")),
			Scan("nation"), EqCols("c.nationkey", "n.nationkey")),
		Cmp(EQ, Col("n.name"), ConstStr("N2")))
	opt, err := Optimize(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.EqualAsBag(want) {
		t.Fatal("join reordering changed semantics")
	}
	if out.Len() != 40 { // 10 customers of nation 2 x 4 orders each
		t.Fatalf("want 40 rows, got %d", out.Len())
	}
}

func TestEstimateStatsSanity(t *testing.T) {
	cat := planCatalog()
	scan := EstimateStats(Scan("orders"), cat)
	if scan.Rows != 200 {
		t.Fatalf("scan rows: %v", scan.Rows)
	}
	filt := EstimateStats(Filter(Scan("orders"), Cmp(EQ, Col("o.custkey"), ConstInt(3))), cat)
	if filt.Rows <= 0 || filt.Rows >= 200 {
		t.Fatalf("eq filter estimate out of range: %v", filt.Rows)
	}
	join := EstimateStats(Join(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")), cat)
	if join.Rows < 100 || join.Rows > 1000 {
		t.Fatalf("join estimate implausible: %v", join.Rows)
	}
}

func TestOptimizerAblationSemantics(t *testing.T) {
	cat := planCatalog()
	plans := []Plan{
		Project(Filter(Scan("orders"), Cmp(LT, Col("o.total"), ConstInt(300))), "o.orderkey"),
		Filter(Join(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")),
			Cmp(EQ, Col("c.nationkey"), ConstInt(1))),
		DistinctOf(Project(Join(Scan("customer"), Scan("nation"),
			EqCols("c.nationkey", "n.nationkey")), "n.name")),
	}
	for i, p := range plans {
		a, err := Run(p, cat, ExecConfig{})
		if err != nil {
			t.Fatalf("plan %d optimized: %v", i, err)
		}
		b, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatalf("plan %d raw: %v", i, err)
		}
		if !a.EqualAsSet(b) {
			t.Fatalf("plan %d: optimizer changed result", i)
		}
	}
}
