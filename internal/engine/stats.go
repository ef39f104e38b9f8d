package engine

import (
	"math"
	"sort"
)

// ColStats holds per-column statistics used by the cost model.
type ColStats struct {
	NDV      float64 // approximate number of distinct values
	Min, Max Value   // extrema (numeric interpolation only)
	HasRange bool    // Min/Max are meaningful numerics
	// Hist is an equi-depth histogram over the (sampled) numeric
	// values: len(Hist) = histBuckets+1 sorted bucket boundaries, each
	// bucket holding an equal fraction of rows. Nil for non-numeric
	// columns or tiny samples.
	Hist []float64
}

// histBuckets is the equi-depth histogram resolution.
const histBuckets = 16

// TableStats holds statistics for one relation.
type TableStats struct {
	Rows float64
	Cols map[string]ColStats
}

// statsSampleCap bounds the number of rows scanned to estimate NDV; a
// real system samples, and so do we.
const statsSampleCap = 50000

// ComputeStats scans (a sample of) the relation and derives statistics.
func ComputeStats(r *Relation) *TableStats {
	ts := &TableStats{Rows: float64(len(r.Rows)), Cols: map[string]ColStats{}}
	n := len(r.Rows)
	step := 1
	if n > statsSampleCap {
		step = n / statsSampleCap
	}
	sampled := (n + step - 1) / step
	var kbuf []byte
	for ci, col := range r.Sch.Cols {
		var distinct int
		distinct, kbuf = countDistinct(r.Rows, ci, step, kbuf)
		var mn, mx Value
		seen := false
		numeric := true
		var nums []float64
		for i := 0; i < n; i += step {
			v := r.Rows[i][ci]
			if v.K != KindInt && v.K != KindFloat {
				numeric = false
				continue
			}
			if nums == nil {
				nums = make([]float64, 0, sampled)
			}
			nums = append(nums, v.AsFloat())
			if !seen {
				mn, mx = v, v
				seen = true
			} else {
				if Compare(v, mn) < 0 {
					mn = v
				}
				if Compare(v, mx) > 0 {
					mx = v
				}
			}
		}
		ndv := float64(distinct)
		if step > 1 && sampled > 0 {
			// First-order scale-up of the sampled distinct count.
			frac := float64(distinct) / float64(sampled)
			ndv = math.Min(ts.Rows, frac*ts.Rows)
		}
		if ndv < 1 {
			ndv = 1
		}
		cs := ColStats{NDV: ndv, Min: mn, Max: mx, HasRange: numeric && seen}
		if numeric && len(nums) >= histBuckets*2 {
			cs.Hist = equiDepthHist(nums)
		}
		ts.Cols[col.Name] = cs
	}
	return ts
}

// countDistinct counts the distinct values of column ci over every
// step-th row, with the value identity of KeyString (so Int(3) and
// Float(3.0) are one value). A column of ints and NULLs is counted on
// its int64 payloads; any other column on reused KeyString bytes, where
// the map lookup does not allocate and only fresh values pay a
// conversion. kbuf is the caller's scratch buffer, returned grown.
func countDistinct(rows []Tuple, ci, step int, kbuf []byte) (int, []byte) {
	allInt := true
	for i := 0; i < len(rows); i += step {
		if k := rows[i][ci].K; k != KindInt && k != KindNull {
			allInt = false
			break
		}
	}
	if allInt {
		ints := make(map[int64]struct{})
		null := 0
		for i := 0; i < len(rows); i += step {
			if v := rows[i][ci]; v.K == KindNull {
				null = 1
			} else {
				ints[v.I] = struct{}{}
			}
		}
		return len(ints) + null, kbuf
	}
	keys := make(map[string]struct{})
	for i := 0; i < len(rows); i += step {
		kbuf = AppendKey(kbuf[:0], rows[i][ci:ci+1])
		if _, ok := keys[string(kbuf)]; !ok {
			keys[string(kbuf)] = struct{}{}
		}
	}
	return len(keys), kbuf
}

// equiDepthHist builds sorted bucket boundaries holding equal row
// fractions.
func equiDepthHist(nums []float64) []float64 {
	sort.Float64s(nums)
	bounds := make([]float64, histBuckets+1)
	for b := 0; b <= histBuckets; b++ {
		idx := b * (len(nums) - 1) / histBuckets
		bounds[b] = nums[idx]
	}
	return bounds
}

// histFracBelow estimates the fraction of rows with value < x (equality
// boundary treated by linear interpolation inside the bucket).
func histFracBelow(hist []float64, x float64) float64 {
	nb := len(hist) - 1
	if x <= hist[0] {
		return 0
	}
	if x >= hist[nb] {
		return 1
	}
	for b := 0; b < nb; b++ {
		lo, hi := hist[b], hist[b+1]
		if x < hi || (x == hi && b == nb-1) {
			within := 0.0
			if hi > lo {
				within = (x - lo) / (hi - lo)
			}
			return (float64(b) + within) / float64(nb)
		}
	}
	return 1
}

// PlanStats is the derived estimate for a plan node: row count and
// per-output-column NDV estimates.
type PlanStats struct {
	Rows float64
	NDV  map[string]float64
}

const (
	defaultEqSel    = 0.01
	defaultRangeSel = 1.0 / 3.0
	defaultSel      = 0.25
	defaultNDV      = 100.0
)

// EstimateStats computes cardinality and NDV estimates bottom-up. It is
// intentionally simple — the same selectivity heuristics classic
// System-R-style optimizers use — because the paper's observation is
// that standard selectivity-based cost measures work well on translated
// U-relation queries. Leaf statistics come from Catalog.Stats and
// Relation.Stats, which compute them once per relation, so the
// join-order search re-estimates candidate trees without rescanning
// base data.
func EstimateStats(p Plan, cat *Catalog) PlanStats {
	switch n := p.(type) {
	case *ScanPlan:
		ts := cat.Stats(n.Name)
		if ts == nil {
			return PlanStats{Rows: 1000, NDV: map[string]float64{}}
		}
		ndv := make(map[string]float64, len(ts.Cols))
		for c, cs := range ts.Cols {
			ndv[c] = cs.NDV
		}
		return PlanStats{Rows: ts.Rows, NDV: ndv}
	case *ValuesPlan:
		ts := n.Rel.Stats()
		ndv := make(map[string]float64, len(ts.Cols))
		for c, cs := range ts.Cols {
			ndv[c] = cs.NDV
		}
		return PlanStats{Rows: ts.Rows, NDV: ndv}
	case *FilterPlan:
		in := EstimateStats(n.Child, cat)
		sel := estimateSelectivity(n.Cond, n.Child, cat, in)
		return scaleStats(in, sel)
	case *ProjectPlan:
		in := EstimateStats(n.Child, cat)
		ndv := make(map[string]float64, len(n.Names))
		for _, c := range n.Names {
			if v, ok := in.NDV[c]; ok {
				ndv[c] = v
			} else {
				ndv[c] = math.Min(in.Rows, defaultNDV)
			}
		}
		return PlanStats{Rows: in.Rows, NDV: ndv}
	case *RenamePlan:
		in := EstimateStats(n.Child, cat)
		sch, err := n.Child.Schema(cat)
		if err != nil {
			return in
		}
		ndv := make(map[string]float64, len(n.Names))
		for i, name := range n.Names {
			if i < sch.Len() {
				if v, ok := in.NDV[sch.Cols[i].Name]; ok {
					ndv[name] = v
					continue
				}
			}
			ndv[name] = math.Min(in.Rows, defaultNDV)
		}
		return PlanStats{Rows: in.Rows, NDV: ndv}
	case *JoinPlan:
		l := EstimateStats(n.L, cat)
		r := EstimateStats(n.R, cat)
		ls, _ := n.L.Schema(cat)
		rs, _ := n.R.Schema(cat)
		pairs, residual := ExtractEquiJoin(n.Cond, ls, rs)
		rows := l.Rows * r.Rows
		for _, pr := range pairs {
			ln := ndvOr(l.NDV, pr.L, defaultNDV)
			rn := ndvOr(r.NDV, pr.R, defaultNDV)
			rows /= math.Max(1, math.Max(ln, rn))
		}
		if residual != nil {
			rows *= residualSelectivity(residual)
		}
		if rows < 1 {
			rows = 1
		}
		switch n.Kind {
		case SemiJoin:
			out := math.Min(l.Rows, rows)
			return PlanStats{Rows: out, NDV: capNDV(l.NDV, out)}
		case AntiJoin:
			out := math.Max(1, l.Rows-rows)
			return PlanStats{Rows: out, NDV: capNDV(l.NDV, out)}
		}
		ndv := make(map[string]float64, len(l.NDV)+len(r.NDV))
		for c, v := range l.NDV {
			ndv[c] = math.Min(v, rows)
		}
		for c, v := range r.NDV {
			ndv[c] = math.Min(v, rows)
		}
		return PlanStats{Rows: rows, NDV: ndv}
	case *UnionPlan:
		l := EstimateStats(n.L, cat)
		r := EstimateStats(n.R, cat)
		rows := l.Rows + r.Rows
		ndv := make(map[string]float64, len(l.NDV))
		for c, v := range l.NDV {
			ndv[c] = math.Min(rows, v+ndvOr(r.NDV, c, 0))
		}
		return PlanStats{Rows: rows, NDV: ndv}
	case *DiffPlan:
		l := EstimateStats(n.L, cat)
		out := math.Max(1, l.Rows*0.5)
		return PlanStats{Rows: out, NDV: capNDV(l.NDV, out)}
	case *IntersectPlan:
		l := EstimateStats(n.L, cat)
		r := EstimateStats(n.R, cat)
		out := math.Max(1, math.Min(l.Rows, r.Rows)*0.5)
		return PlanStats{Rows: out, NDV: capNDV(l.NDV, out)}
	case *DistinctPlan:
		in := EstimateStats(n.Child, cat)
		prod := 1.0
		for _, v := range in.NDV {
			prod *= math.Max(1, v)
			if prod > in.Rows {
				prod = in.Rows
				break
			}
		}
		out := math.Max(1, math.Min(in.Rows, prod))
		return PlanStats{Rows: out, NDV: capNDV(in.NDV, out)}
	case *SortPlan:
		return EstimateStats(n.Child, cat)
	case *ExtendPlan:
		in := EstimateStats(n.Child, cat)
		ndv := make(map[string]float64, len(in.NDV)+len(n.Exprs))
		for c, v := range in.NDV {
			ndv[c] = v
		}
		for _, ne := range n.Exprs {
			ndv[ne.Name] = math.Min(in.Rows, defaultNDV)
		}
		return PlanStats{Rows: in.Rows, NDV: ndv}
	case *LimitPlan:
		in := EstimateStats(n.Child, cat)
		out := math.Min(in.Rows, float64(n.N))
		return PlanStats{Rows: out, NDV: capNDV(in.NDV, out)}
	case *AggPlan:
		in := EstimateStats(n.Child, cat)
		groups := 1.0
		for _, g := range n.GroupBy {
			groups *= math.Max(1, ndvOr(in.NDV, g, defaultNDV))
		}
		out := math.Max(1, math.Min(in.Rows, groups))
		return PlanStats{Rows: out, NDV: capNDV(in.NDV, out)}
	default:
		if sp, ok := p.(SourcePlan); ok {
			return PlanStats{Rows: sp.EstimateRowCount(), NDV: map[string]float64{}}
		}
		// Unknown unary wrappers pass their child's estimate through
		// rather than degrading to a constant.
		if ch := p.Children(); len(ch) == 1 {
			return EstimateStats(ch[0], cat)
		}
		return PlanStats{Rows: 1000, NDV: map[string]float64{}}
	}
}

// EstimateRows returns only the estimated output cardinality of a plan.
// Unlike EstimateStats it reads no per-column statistics and builds no
// NDV maps, so it is cheap enough to call for every node during
// physical lowering, where it gates the serial-vs-parallel operator
// choice.
func EstimateRows(p Plan, cat *Catalog) float64 {
	switch n := p.(type) {
	case *ScanPlan:
		if ts := cat.Stats(n.Name); ts != nil {
			return ts.Rows
		}
		return 1000
	case *ValuesPlan:
		return float64(len(n.Rel.Rows))
	case *FilterPlan:
		return math.Max(1, EstimateRows(n.Child, cat)*defaultSel)
	case *ProjectPlan:
		return EstimateRows(n.Child, cat)
	case *RenamePlan:
		return EstimateRows(n.Child, cat)
	case *ExtendPlan:
		return EstimateRows(n.Child, cat)
	case *SortPlan:
		return EstimateRows(n.Child, cat)
	case *DistinctPlan:
		return EstimateRows(n.Child, cat)
	case *LimitPlan:
		return math.Min(EstimateRows(n.Child, cat), float64(n.N))
	case *JoinPlan:
		l := EstimateRows(n.L, cat)
		if n.Kind != InnerJoin {
			return l
		}
		// Equi joins typically produce on the order of the larger input.
		return math.Max(l, EstimateRows(n.R, cat))
	case *UnionPlan:
		return EstimateRows(n.L, cat) + EstimateRows(n.R, cat)
	case *DiffPlan:
		return math.Max(1, EstimateRows(n.L, cat)*0.5)
	case *IntersectPlan:
		return math.Max(1, math.Min(EstimateRows(n.L, cat), EstimateRows(n.R, cat))*0.5)
	case *AggPlan:
		return EstimateRows(n.Child, cat)
	default:
		if sp, ok := p.(SourcePlan); ok {
			return sp.EstimateRowCount()
		}
		// Propagate through unknown unary nodes (projection-/rename-like
		// wrappers over storage-backed leaves) instead of falling back to
		// a constant, so the parallelism gate still sees the leaf's
		// cardinality.
		if ch := p.Children(); len(ch) == 1 {
			return EstimateRows(ch[0], cat)
		}
		return 1000
	}
}

func ndvOr(m map[string]float64, k string, def float64) float64 {
	if v, ok := m[k]; ok {
		return v
	}
	return def
}

func capNDV(m map[string]float64, rows float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for c, v := range m {
		out[c] = math.Min(v, rows)
	}
	return out
}

func scaleStats(in PlanStats, sel float64) PlanStats {
	rows := math.Max(1, in.Rows*sel)
	return PlanStats{Rows: rows, NDV: capNDV(in.NDV, rows)}
}

// estimateSelectivity estimates the fraction of rows satisfying cond.
func estimateSelectivity(cond Expr, child Plan, cat *Catalog, in PlanStats) float64 {
	sel := 1.0
	for _, c := range SplitConjuncts(cond) {
		sel *= conjunctSelectivity(c, child, cat, in)
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

func conjunctSelectivity(c Expr, child Plan, cat *Catalog, in PlanStats) float64 {
	switch e := c.(type) {
	case *CmpExpr:
		col, cst, op, ok := normalizeCmp(e)
		if !ok {
			return defaultSel
		}
		switch op {
		case EQ:
			ndv := ndvOr(in.NDV, col, 1/defaultEqSel)
			return 1 / math.Max(1, ndv)
		case NE:
			ndv := ndvOr(in.NDV, col, 1/defaultEqSel)
			return 1 - 1/math.Max(1, ndv)
		default:
			if cs, ok2 := baseColStats(child, cat, col); ok2 && cs.HasRange {
				return rangeSelectivity(op, cst, cs)
			}
			return defaultRangeSel
		}
	case *LogicExpr:
		switch e.Op {
		case AndOp:
			s := 1.0
			for _, a := range e.Args {
				s *= conjunctSelectivity(a, child, cat, in)
			}
			return s
		case OrOp:
			s := 0.0
			for _, a := range e.Args {
				s += conjunctSelectivity(a, child, cat, in)
			}
			if s > 1 {
				s = 1
			}
			return s
		default:
			return 1 - conjunctSelectivity(e.Args[0], child, cat, in)
		}
	case *InExpr:
		cols := ExprColumns(e)
		if len(cols) == 1 {
			ndv := ndvOr(in.NDV, cols[0], 1/defaultEqSel)
			s := float64(len(e.Vals)) / math.Max(1, ndv)
			if s > 1 {
				s = 1
			}
			return s
		}
		return defaultSel
	default:
		return defaultSel
	}
}

// NormalizeColCmp rewrites a column-vs-constant comparison into (col,
// const, op) with the column on the left, flipping the operator when
// the constant was on the left. ok is false for any other shape.
// Shared by the selectivity estimator and storage-level segment
// pruning.
func NormalizeColCmp(e *CmpExpr) (col string, cst Value, op CmpOp, ok bool) {
	return normalizeCmp(e)
}

// normalizeCmp rewrites col-vs-constant comparisons into (col, const,
// op) with the column on the left.
func normalizeCmp(e *CmpExpr) (col string, cst Value, op CmpOp, ok bool) {
	if c, okc := e.L.(*ColRef); okc {
		if k, okk := e.R.(*ConstExpr); okk {
			return c.Name, k.Val, e.Op, true
		}
	}
	if c, okc := e.R.(*ColRef); okc {
		if k, okk := e.L.(*ConstExpr); okk {
			// Flip the operator.
			var flip CmpOp
			switch e.Op {
			case LT:
				flip = GT
			case LE:
				flip = GE
			case GT:
				flip = LT
			case GE:
				flip = LE
			default:
				flip = e.Op
			}
			return c.Name, k.Val, flip, true
		}
	}
	return "", Null(), EQ, false
}

func rangeSelectivity(op CmpOp, cst Value, cs ColStats) float64 {
	x := cst.AsFloat()
	var frac float64
	if len(cs.Hist) > 1 {
		// Equi-depth histogram: robust on skewed distributions.
		frac = histFracBelow(cs.Hist, x)
	} else {
		lo, hi := cs.Min.AsFloat(), cs.Max.AsFloat()
		if hi <= lo {
			return defaultRangeSel
		}
		frac = (x - lo) / (hi - lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
	}
	switch op {
	case LT, LE:
		return clampSel(frac)
	case GT, GE:
		return clampSel(1 - frac)
	default:
		return defaultRangeSel
	}
}

func clampSel(s float64) float64 {
	if s < 0.0005 {
		return 0.0005
	}
	if s > 1 {
		return 1
	}
	return s
}

func residualSelectivity(residual Expr) float64 {
	// The ψ descriptor-consistency conditions are (var≠var' OR rng=rng')
	// disjunctions; they are weakly selective. Use a mild default per
	// conjunct.
	n := len(SplitConjuncts(residual))
	s := 1.0
	for i := 0; i < n; i++ {
		s *= 0.9
	}
	return s
}

// baseColStats traces a column through simple plan shapes down to a
// base relation to find range stats.
func baseColStats(p Plan, cat *Catalog, col string) (ColStats, bool) {
	switch n := p.(type) {
	case *ScanPlan:
		ts := cat.Stats(n.Name)
		if ts == nil {
			return ColStats{}, false
		}
		cs, ok := ts.Cols[col]
		if !ok {
			// Suffix resolution, mirroring Schema.IndexOf.
			for name, c := range ts.Cols {
				if suffixAfterDot(name) == col {
					return c, true
				}
			}
		}
		return cs, ok
	case *ValuesPlan:
		cs, ok := n.Rel.Stats().Cols[col]
		return cs, ok
	case *FilterPlan:
		return baseColStats(n.Child, cat, col)
	case *ProjectPlan:
		return baseColStats(n.Child, cat, col)
	case *JoinPlan:
		if cs, ok := baseColStats(n.L, cat, col); ok {
			return cs, ok
		}
		return baseColStats(n.R, cat, col)
	default:
		return ColStats{}, false
	}
}
