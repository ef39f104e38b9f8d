package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestComputeStatsBasics(t *testing.T) {
	r := testRel([]string{"a", "b"}, [][]int64{{1, 10}, {2, 10}, {3, 20}, {3, 20}})
	ts := ComputeStats(r)
	if ts.Rows != 4 {
		t.Fatal("row count")
	}
	a := ts.Cols["a"]
	if a.NDV != 3 || a.Min.AsInt() != 1 || a.Max.AsInt() != 3 || !a.HasRange {
		t.Fatalf("column a stats wrong: %+v", a)
	}
	b := ts.Cols["b"]
	if b.NDV != 2 {
		t.Fatalf("column b ndv: %v", b.NDV)
	}
}

func TestComputeStatsStrings(t *testing.T) {
	sch := NewSchema(Column{Name: "s", Kind: KindString})
	r := NewRelation(sch)
	r.Append(Tuple{Str("x")})
	r.Append(Tuple{Str("y")})
	ts := ComputeStats(r)
	if ts.Cols["s"].HasRange {
		t.Fatal("strings have no numeric range")
	}
	if ts.Cols["s"].Hist != nil {
		t.Fatal("strings have no histogram")
	}
}

func TestComputeStatsSampling(t *testing.T) {
	// More rows than the sample cap: NDV is scaled up, not truncated.
	r := NewRelation(NewSchema(Column{Name: "a", Kind: KindInt}))
	for i := 0; i < statsSampleCap*2; i++ {
		r.Append(Tuple{Int(int64(i))})
	}
	ts := ComputeStats(r)
	ndv := ts.Cols["a"].NDV
	if ndv < float64(statsSampleCap) {
		t.Fatalf("scaled NDV too small: %v", ndv)
	}
}

func TestEquiDepthHistogram(t *testing.T) {
	// Heavily skewed data: 90% of values at 0..9, 10% spread to 10000.
	rng := rand.New(rand.NewSource(5))
	r := NewRelation(NewSchema(Column{Name: "v", Kind: KindInt}))
	n := 10000
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.9 {
			r.Append(Tuple{Int(int64(rng.Intn(10)))})
		} else {
			r.Append(Tuple{Int(int64(10 + rng.Intn(9990)))})
		}
	}
	ts := ComputeStats(r)
	cs := ts.Cols["v"]
	if len(cs.Hist) != histBuckets+1 {
		t.Fatalf("histogram missing: %v", cs.Hist)
	}
	// True selectivity of v < 10 is ~0.9; linear min/max interpolation
	// would say ~0.001. The histogram estimate must be near the truth.
	sel := rangeSelectivity(LT, Int(10), cs)
	if math.Abs(sel-0.9) > 0.1 {
		t.Fatalf("histogram selectivity %v, want ≈0.9", sel)
	}
	naive := rangeSelectivity(LT, Int(10), ColStats{
		Min: cs.Min, Max: cs.Max, HasRange: true,
	})
	if naive > 0.1 {
		t.Fatalf("naive interpolation should be badly off (got %v) — test setup broken", naive)
	}
	// Boundary behaviors.
	if s := rangeSelectivity(LT, Int(-5), cs); s > 0.01 {
		t.Fatalf("below min: %v", s)
	}
	if s := rangeSelectivity(GT, Int(-5), cs); s < 0.99 {
		t.Fatalf("above min going right: %v", s)
	}
	if s := rangeSelectivity(LT, Int(999999), cs); s < 0.99 {
		t.Fatalf("above max: %v", s)
	}
}

func TestHistFracBelowMonotone(t *testing.T) {
	hist := []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}
	prev := -1.0
	for x := -10.0; x <= 40000; x += 500 {
		f := histFracBelow(hist, x)
		if f < prev-1e-12 {
			t.Fatalf("histFracBelow not monotone at %v: %v < %v", x, f, prev)
		}
		if f < 0 || f > 1 {
			t.Fatalf("out of range at %v: %v", x, f)
		}
		prev = f
	}
}

func TestEstimateUsesHistogramThroughPlans(t *testing.T) {
	cat := NewCatalog()
	r := NewRelation(NewSchema(Column{Name: "v", Kind: KindInt}))
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 5000; i++ {
		if rng.Float64() < 0.95 {
			r.Append(Tuple{Int(int64(rng.Intn(5)))})
		} else {
			r.Append(Tuple{Int(int64(1000 + rng.Intn(1000)))})
		}
	}
	cat.Put("skewed", r)
	st := EstimateStats(Filter(Scan("skewed"), Cmp(LT, Col("v"), ConstInt(5))), cat)
	// True cardinality ~0.95*4/5*5000 ≈ 3800; accept a loose band that
	// naive interpolation (≈ 12 rows) would fail.
	if st.Rows < 1000 {
		t.Fatalf("histogram-based estimate too low: %v", st.Rows)
	}
}

func TestNormalizeCmpFlips(t *testing.T) {
	col, cst, op, ok := normalizeCmp(Cmp(LT, ConstInt(5), Col("a")))
	if !ok || col != "a" || cst.AsInt() != 5 || op != GT {
		t.Fatalf("flip wrong: %v %v %v %v", col, cst, op, ok)
	}
	_, _, _, ok = normalizeCmp(Cmp(EQ, Col("a"), Col("b")))
	if ok {
		t.Fatal("col-col must not normalize")
	}
}

func TestSelectivityBounds(t *testing.T) {
	cat := planCatalog()
	// Compound predicates stay within [~0, rows].
	preds := []Expr{
		And(Cmp(GT, Col("o.total"), ConstInt(100)), Cmp(LT, Col("o.total"), ConstInt(500))),
		Or(Cmp(EQ, Col("o.custkey"), ConstInt(1)), Cmp(EQ, Col("o.custkey"), ConstInt(2))),
		Not(Cmp(EQ, Col("o.custkey"), ConstInt(1))),
		In(Col("o.custkey"), Int(1), Int(2), Int(3)),
	}
	for i, p := range preds {
		st := EstimateStats(Filter(Scan("orders"), p), cat)
		if st.Rows < 0.5 || st.Rows > 200 {
			t.Fatalf("pred %d: estimate out of bounds: %v", i, st.Rows)
		}
	}
}

// stubSource is a minimal SourcePlan for estimator tests.
type stubSource struct {
	rows float64
	sch  Schema
}

func (s *stubSource) Schema(*Catalog) (Schema, error) { return s.sch, nil }
func (s *stubSource) Children() []Plan                { return nil }
func (s *stubSource) WithChildren([]Plan) Plan        { c := *s; return &c }
func (s *stubSource) Label() string                   { return "stub source" }
func (s *stubSource) EstimateRowCount() float64       { return s.rows }
func (s *stubSource) BuildIter(ExecConfig) (Iterator, error) {
	return NewScan(NewRelation(s.sch)), nil
}

// opaqueUnary is an unknown unary plan node, standing in for future
// wrappers the estimator has no case for.
type opaqueUnary struct{ child Plan }

func (o *opaqueUnary) Schema(cat *Catalog) (Schema, error) { return o.child.Schema(cat) }
func (o *opaqueUnary) Children() []Plan                    { return []Plan{o.child} }
func (o *opaqueUnary) WithChildren(ch []Plan) Plan         { return &opaqueUnary{child: ch[0]} }
func (o *opaqueUnary) Label() string                       { return "opaque" }

// TestEstimateRowsSourcePropagation checks that cardinality estimates
// flow from storage-backed leaves up through projections, unions, and
// even unknown unary wrappers — so the parallelism gate fires on
// stored scans instead of seeing the unknown-node constant.
func TestEstimateRowsSourcePropagation(t *testing.T) {
	cat := NewCatalog()
	src := &stubSource{rows: 50000, sch: NewSchema(Column{Name: "a", Kind: KindInt})}
	if got := EstimateRows(src, cat); got != 50000 {
		t.Fatalf("source estimate = %g, want 50000", got)
	}
	if got := EstimateRows(Project(src, "a"), cat); got != 50000 {
		t.Fatalf("projection over source = %g, want 50000", got)
	}
	u := Union(Project(src, "a"), src)
	if got := EstimateRows(u, cat); got != 100000 {
		t.Fatalf("union over sources = %g, want 100000", got)
	}
	if got := EstimateRows(&opaqueUnary{child: src}, cat); got != 50000 {
		t.Fatalf("opaque unary over source = %g, want 50000", got)
	}
	if st := EstimateStats(&opaqueUnary{child: src}, cat); st.Rows != 50000 {
		t.Fatalf("EstimateStats opaque unary = %g, want 50000", st.Rows)
	}
	// The gate itself: estimated rows clear the default threshold.
	if !parallelWorthwhile(ExecConfig{}, EstimateRows(Project(src, "a"), cat)) {
		t.Fatal("parallel gate should fire on a 50k-row stored scan")
	}
}

// keyStringStats is the reference statistics computation: it counts
// distinct values on KeyString bytes for every column, the identity
// ComputeStats' NDV must keep bit for bit.
func keyStringStats(r *Relation) *TableStats {
	ts := &TableStats{Rows: float64(len(r.Rows)), Cols: map[string]ColStats{}}
	n := len(r.Rows)
	step := 1
	if n > statsSampleCap {
		step = n / statsSampleCap
	}
	for ci, col := range r.Sch.Cols {
		distinct := map[string]struct{}{}
		var mn, mx Value
		seen, numeric := false, true
		sampled := 0
		var nums []float64
		for i := 0; i < n; i += step {
			v := r.Rows[i][ci]
			sampled++
			distinct[KeyString(Tuple{v})] = struct{}{}
			if v.K != KindInt && v.K != KindFloat {
				numeric = false
				continue
			}
			nums = append(nums, v.AsFloat())
			if !seen {
				mn, mx, seen = v, v, true
			} else {
				if Compare(v, mn) < 0 {
					mn = v
				}
				if Compare(v, mx) > 0 {
					mx = v
				}
			}
		}
		ndv := float64(len(distinct))
		if step > 1 && sampled > 0 {
			ndv = math.Min(ts.Rows, float64(len(distinct))/float64(sampled)*ts.Rows)
		}
		if ndv < 1 {
			ndv = 1
		}
		cs := ColStats{NDV: ndv, Min: mn, Max: mx, HasRange: numeric && seen}
		if numeric && len(nums) >= histBuckets*2 {
			sort.Float64s(nums)
			cs.Hist = make([]float64, histBuckets+1)
			for b := range cs.Hist {
				cs.Hist[b] = nums[b*(len(nums)-1)/histBuckets]
			}
		}
		ts.Cols[col.Name] = cs
	}
	return ts
}

// statsColumnGens generate one cell each; every generator draws from a
// small domain so that duplicates, and Int(k) next to Float(k), occur.
var statsColumnGens = map[string]func(*rand.Rand) Value{
	"ints": func(rng *rand.Rand) Value { return Int(rng.Int63n(50) - 10) },
	"ints+null": func(rng *rand.Rand) Value {
		if rng.Intn(5) == 0 {
			return Null()
		}
		return Int(rng.Int63n(40))
	},
	"all-null": func(*rand.Rand) Value { return Null() },
	"int+integral-float": func(rng *rand.Rand) Value {
		k := rng.Int63n(30)
		if rng.Intn(2) == 0 {
			return Float(float64(k))
		}
		return Int(k)
	},
	"floats": func(rng *rand.Rand) Value { return Float(float64(rng.Intn(60)) / 4) },
	"bools+ints": func(rng *rand.Rand) Value {
		if rng.Intn(2) == 0 {
			return Bool(rng.Intn(2) == 0)
		}
		return Int(rng.Int63n(3))
	},
	"strings+null": func(rng *rand.Rand) Value {
		if rng.Intn(6) == 0 {
			return Null()
		}
		return Str(fmt.Sprint(rng.Intn(25)))
	},
	"mixed": func(rng *rand.Rand) Value {
		k := rng.Int63n(20)
		switch rng.Intn(6) {
		case 0:
			return Null()
		case 1:
			return Float(float64(k))
		case 2:
			return Float(float64(k) + 0.5)
		case 3:
			return Bool(k%2 == 0)
		case 4:
			return Str(fmt.Sprint(k))
		default:
			return Int(k)
		}
	},
}

// TestComputeStatsMatchesKeyStringReference is the NDV-equivalence
// property: ComputeStats, with its int64 fast path, yields exactly the
// statistics of KeyString-based counting, on small columns and on
// columns above statsSampleCap (the sampled path).
func TestComputeStatsMatchesKeyStringReference(t *testing.T) {
	names := make([]string, 0, len(statsColumnGens))
	for name := range statsColumnGens {
		names = append(names, name)
	}
	sort.Strings(names)
	cols := make([]Column, len(names))
	for i, name := range names {
		cols[i] = Column{Name: name}
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 31, 32, 200, 1000, statsSampleCap + 1, 2*statsSampleCap + 37} {
		for trial := 0; trial < 3; trial++ {
			r := NewRelation(NewSchema(cols...))
			r.Rows = make([]Tuple, n)
			for i := range r.Rows {
				row := make(Tuple, len(names))
				for ci, name := range names {
					row[ci] = statsColumnGens[name](rng)
				}
				r.Rows[i] = row
			}
			got, want := ComputeStats(r), keyStringStats(r)
			if !reflect.DeepEqual(got, want) {
				for _, name := range names {
					if g, w := got.Cols[name], want.Cols[name]; !reflect.DeepEqual(g, w) {
						t.Errorf("n=%d trial=%d column %s: got %+v, want %+v", n, trial, name, g, w)
					}
				}
				t.Fatalf("n=%d trial=%d: stats differ from the KeyString reference", n, trial)
			}
		}
	}
}

// statsComputed runs f and returns how many statistics computations
// Relation.Stats performed meanwhile.
func statsComputed(f func()) int64 {
	before := statsComputations.Load()
	f()
	return statsComputations.Load() - before
}

func TestOptimizeComputesLeafStatsOnce(t *testing.T) {
	// A k-leaf equi-join chain of anonymous ValuesPlan leaves: the
	// greedy join orderer estimates every leaf and many candidate trees
	// over them, but each leaf's statistics are computed once. Equal
	// leaves keep the chain in one greedy search (a reordered subchain
	// would hide its leaves from the outer search behind a projection).
	const k = 6
	var p Plan
	for i := 0; i < k; i++ {
		a, b := fmt.Sprintf("t%d.a", i), fmt.Sprintf("t%d.b", i)
		rows := make([][]int64, 40)
		for j := range rows {
			rows[j] = []int64{int64(j % 10), int64(j % 7)}
		}
		leaf := Values(testRel([]string{a, b}, rows), fmt.Sprintf("t%d", i))
		if p == nil {
			p = leaf
		} else {
			p = Join(p, leaf, EqCols(fmt.Sprintf("t%d.b", i-1), a))
		}
	}
	cat := NewCatalog()
	n := statsComputed(func() {
		if _, err := Optimize(p, cat); err != nil {
			t.Fatal(err)
		}
	})
	if n != k {
		t.Fatalf("Optimize over %d leaves computed stats %d times, want %d", k, n, k)
	}
	if n := statsComputed(func() { Optimize(p, cat) }); n != 0 {
		t.Fatalf("re-optimizing recomputed stats %d times", n)
	}
}

func TestRelationStatsInvalidation(t *testing.T) {
	r := testRel([]string{"a"}, [][]int64{{1}, {2}, {2}})
	if ndv := r.Stats().Cols["a"].NDV; ndv != 2 {
		t.Fatalf("ndv %v, want 2", ndv)
	}
	if n := statsComputed(func() { r.Stats() }); n != 0 {
		t.Fatalf("unchanged rows recomputed stats %d times", n)
	}
	// Append drops the memo.
	r.AppendVals(Int(3))
	if ts := r.Stats(); ts.Rows != 4 || ts.Cols["a"].NDV != 3 {
		t.Fatalf("after Append: %+v", ts)
	}
	// Reassigning Rows to another slice of the same length is detected.
	r.Rows = []Tuple{{Int(5)}, {Int(5)}, {Int(5)}, {Int(5)}}
	if ts := r.Stats(); ts.Rows != 4 || ts.Cols["a"].NDV != 1 {
		t.Fatalf("after reassigning Rows: %+v", ts)
	}
	// So is a reslice that keeps the backing array but not the length.
	r.Rows = r.Rows[:2]
	if ts := r.Stats(); ts.Rows != 2 {
		t.Fatalf("after reslicing Rows: %+v", ts)
	}
	// Catalog.Put drops the memo, covering in-place edits.
	r.Rows[0] = Tuple{Int(9)}
	cat := NewCatalog()
	cat.Put("r", r)
	if ts := cat.Stats("r"); ts.Cols["a"].NDV != 2 {
		t.Fatalf("after Put of an edited relation: %+v", ts)
	}
}

func TestRelationStatsConcurrent(t *testing.T) {
	rows := make([][]int64, 500)
	for i := range rows {
		rows[i] = []int64{int64(i % 37)}
	}
	r := testRel([]string{"a"}, rows)
	var wg sync.WaitGroup
	results := make([]*TableStats, 8)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				results[g] = r.Stats()
			}
		}(g)
	}
	wg.Wait()
	for g, ts := range results {
		if ts.Cols["a"].NDV != 37 {
			t.Fatalf("goroutine %d saw ndv %v", g, ts.Cols["a"].NDV)
		}
	}
}

// TestDistinctCounterMatchesKeyString checks every counting path of
// DistinctCounter — sorted runs, the dense-range bitset, typed sets and
// the mixed-kind KeyString fallback — against KeyString counting, with
// one counter reused across columns as ComputeStats and the store's
// writer reuse it.
func TestDistinctCounterMatchesKeyString(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nan := math.NaN()
	shapes := map[string]func(i int) Value{
		"sorted-ints": func(i int) Value { return Int(int64(i / 3)) },
		"sorted-ints+null": func(i int) Value {
			if i%7 == 0 {
				return Null()
			}
			return Int(int64(i / 2))
		},
		"dense-ints":  func(int) Value { return Int(rng.Int63n(300) - 150) },
		"wide-ints":   func(int) Value { return Int(rng.Int63n(1<<40) * int64(1-2*rng.Intn(2))) },
		"extreme-int": func(i int) Value { return Int([]int64{math.MinInt64, math.MaxInt64, 0}[i%3]) },
		"floats": func(int) Value {
			return Float([]float64{0, math.Copysign(0, -1), nan, -nan, math.Inf(1), math.Inf(-1), 2.5, 3, 1e300}[rng.Intn(9)])
		},
		"sorted-strings": func(i int) Value { return Str(fmt.Sprintf("k%06d", i/4)) },
		"strings": func(int) Value {
			if rng.Intn(9) == 0 {
				return Null()
			}
			return Str(fmt.Sprint(rng.Intn(40)))
		},
		"bools": func(int) Value { return Bool(rng.Intn(2) == 0) },
		"int+float": func(int) Value {
			k := rng.Int63n(20)
			if rng.Intn(2) == 0 {
				return Float(float64(k))
			}
			return Int(k)
		},
		"nulls": func(int) Value { return Null() },
	}
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	var dc DistinctCounter
	for _, n := range []int{0, 1, 2, 64, 1000} {
		for _, name := range names {
			rows := make([]Tuple, n)
			want := map[string]struct{}{}
			for i := range rows {
				rows[i] = Tuple{shapes[name](i)}
				want[KeyString(rows[i])] = struct{}{}
			}
			if got := dc.Count(rows, 0, 1); got != len(want) {
				t.Errorf("%s n=%d: Count = %d, KeyString distinct = %d", name, n, got, len(want))
			}
		}
	}
}
