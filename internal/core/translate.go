package core

import (
	"fmt"

	"urel/internal/engine"
	"urel/internal/ws"
)

// ULayout describes how a translated (representation-level) relation
// encodes a U-relation: which engine columns hold ws-descriptor pairs,
// tuple ids, and value attributes. Physical value-attribute columns are
// named exactly by their qualified logical names, so logical conditions
// bind directly.
type ULayout struct {
	// DPairs lists (varColumn, rngColumn) name pairs of the descriptor.
	DPairs [][2]string
	// TIDs lists tuple-id column names, one per relation instance
	// (alias) contributing to the result.
	TIDs []string
	// Attrs lists the qualified value-attribute column names in order.
	Attrs []string
	// Picks records, for a single-relation translation, which vertical
	// partitions the merge included and each one's own descriptor-pair
	// columns — the information the write path needs to recover a
	// partition row's identity (descriptor, tuple id) from a result
	// row. Selections preserve it; joins, projections, and unions drop
	// it (their results no longer correspond to one relation's rows).
	Picks []PartPick
}

// PartPick names one partition's contribution to a translated
// relation: its index in the relation's partition list and its
// descriptor-pair column names in the translated schema.
type PartPick struct {
	Part   int
	DPairs [][2]string
}

// Columns returns all column names in canonical order (D, T, A) — the
// paper's U[D; T; A] layout.
func (l *ULayout) Columns() []string {
	var out []string
	for _, dp := range l.DPairs {
		out = append(out, dp[0], dp[1])
	}
	out = append(out, l.TIDs...)
	out = append(out, l.Attrs...)
	return out
}

// translator carries state for one query translation.
type translator struct {
	db      *UDB
	unameCt int // counter for fresh union-pad column names
	// full forces merging all partitions of every referenced relation,
	// making result descriptors characterize world membership exactly
	// (tuple-level results). Possible-answer queries can stay lazy
	// ("the answer is simply U", Section 3); certain answers and
	// confidence computation need tuple-level descriptors (Section 4).
	full bool
}

// Translate compiles a positive relational algebra query with poss into
// a plain relational algebra plan over the U-relational representation
// (the [[·]] translation of Figure 4). For a query without a top-level
// poss the returned layout describes the result U-relation; for a
// poss-query the layout is nil and the plan computes the set of
// possible answer tuples directly.
func (db *UDB) Translate(q Query) (engine.Plan, *ULayout, error) {
	return db.translateMode(q, false)
}

// TranslateFull compiles q with full partition merging: the result's
// ws-descriptors characterize world membership exactly (tuple-level),
// as required for certain answers and confidence computation. For
// relations with overlapping partitions exactness additionally assumes
// tuples are present in all partitions covering them (disjoint
// partitions, the common case, are always exact).
func (db *UDB) TranslateFull(q Query) (engine.Plan, *ULayout, error) {
	return db.translateMode(q, true)
}

func (db *UDB) translateMode(q Query, full bool) (engine.Plan, *ULayout, error) {
	if _, err := collectAliases(q); err != nil {
		return nil, nil, err
	}
	tr := &translator{db: db, full: full}
	if p, ok := q.(*PossQ); ok {
		plan, lay, err := tr.translate(p.Q, nil)
		if err != nil {
			return nil, nil, err
		}
		// poss(Q) := π_A(U), a duplicate-eliminating projection on the
		// value attributes.
		return engine.DistinctOf(engine.Project(plan, lay.Attrs...)), nil, nil
	}
	plan, lay, err := tr.translate(q, nil)
	if err != nil {
		return nil, nil, err
	}
	return plan, lay, nil
}

// translate compiles q; need lists the qualified value attributes
// required by ancestors (nil = all output attributes). Needed-attribute
// propagation is what lets the translation merge in only the necessary
// vertical partitions (Section 3, "it does not require to reconstruct
// the entire relations involved in the query").
func (tr *translator) translate(q Query, need []string) (engine.Plan, *ULayout, error) {
	switch n := q.(type) {
	case *RelQ:
		return tr.translateRel(n, need)
	case *SelectQ:
		childNeed, err := tr.extendNeed(n.Q, need, engine.ExprColumns(n.Cond))
		if err != nil {
			return nil, nil, err
		}
		plan, lay, err := tr.translate(n.Q, childNeed)
		if err != nil {
			return nil, nil, err
		}
		// Analysis: the condition must resolve unambiguously against
		// the value attributes (before the optimizer moves it around).
		if err := checkCondBinds(n.Cond, lay.Attrs); err != nil {
			return nil, nil, err
		}
		// [[σ_φ(Q)]] := σ_φ(U): conditions apply to value attributes,
		// whose physical columns carry the logical names.
		return engine.Filter(plan, n.Cond), lay, nil
	case *ProjectQ:
		attrs, err := n.Attrs(tr.db)
		if err != nil {
			return nil, nil, err
		}
		plan, lay, err := tr.translate(n.Q, attrs)
		if err != nil {
			return nil, nil, err
		}
		// [[π_X(Q)]] := π_{D,T,X}(U): descriptors and tuple ids are
		// preserved.
		out := &ULayout{DPairs: lay.DPairs, TIDs: lay.TIDs, Attrs: attrs}
		return engine.Project(plan, out.Columns()...), out, nil
	case *JoinQ:
		lAttrs, err := n.L.Attrs(tr.db)
		if err != nil {
			return nil, nil, err
		}
		rAttrs, err := n.R.Attrs(tr.db)
		if err != nil {
			return nil, nil, err
		}
		condAttrs := engine.ExprColumns(n.Cond)
		lNeed, err := splitNeed(need, condAttrs, lAttrs)
		if err != nil {
			return nil, nil, err
		}
		rNeed, err := splitNeed(need, condAttrs, rAttrs)
		if err != nil {
			return nil, nil, err
		}
		lp, ll, err := tr.translate(n.L, lNeed)
		if err != nil {
			return nil, nil, err
		}
		rp, rl, err := tr.translate(n.R, rNeed)
		if err != nil {
			return nil, nil, err
		}
		if err := checkCondBinds(n.Cond, append(append([]string{}, ll.Attrs...), rl.Attrs...)); err != nil {
			return nil, nil, err
		}
		// [[Q1 ⋈_φ Q2]] := π_{D1,D2,T1,T2,A,B}(U1 ⋈_{φ∧ψ} U2), where ψ
		// discards combinations with inconsistent ws-descriptors.
		cond := engine.And(n.Cond, psiCond(ll.DPairs, rl.DPairs))
		out := &ULayout{
			DPairs: append(append([][2]string{}, ll.DPairs...), rl.DPairs...),
			TIDs:   append(append([]string{}, ll.TIDs...), rl.TIDs...),
			Attrs:  append(append([]string{}, ll.Attrs...), rl.Attrs...),
		}
		return engine.Join(lp, rp, cond), out, nil
	case *UnionQ:
		return tr.translateUnion(n, need)
	case *PossQ:
		return nil, nil, fmt.Errorf("core: poss is only supported at the top level of a query")
	default:
		return nil, nil, fmt.Errorf("core: unsupported query node %T", q)
	}
}

// translateRel merges the necessary vertical partitions of a logical
// relation (the merge operator of Figure 4: U1 ⋈_{α∧ψ} U2 projected to
// a single tuple-id set).
func (tr *translator) translateRel(n *RelQ, need []string) (engine.Plan, *ULayout, error) {
	rs, ok := tr.db.Rels[n.Name]
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown relation %q", n.Name)
	}
	alias := n.alias()
	// Determine the unqualified attributes this occurrence must produce.
	var wanted []string
	if need == nil || tr.full {
		wanted = append(wanted, rs.Attrs...)
	} else {
		prefix := alias + "."
		for _, a := range need {
			if len(a) > len(prefix) && a[:len(prefix)] == prefix {
				wanted = append(wanted, a[len(prefix):])
			}
		}
	}
	// Greedy partition cover: take partitions (in declaration order)
	// while they contribute uncovered wanted attributes.
	covered := map[string]bool{}
	type chosen struct {
		part    *URelation
		pidx    int
		contrib []string
	}
	var picks []chosen
	for pi, p := range rs.Parts {
		var contrib []string
		for _, a := range p.Attrs {
			if !covered[a] && contains(wanted, a) {
				contrib = append(contrib, a)
			}
		}
		if len(contrib) == 0 {
			continue
		}
		for _, a := range contrib {
			covered[a] = true
		}
		picks = append(picks, chosen{part: p, pidx: pi, contrib: contrib})
	}
	for _, a := range wanted {
		if !covered[a] {
			return nil, nil, fmt.Errorf("core: attribute %s.%s not covered by any partition", n.Name, a)
		}
	}
	if len(picks) == 0 {
		// A projection to zero attributes still needs tuple existence:
		// use the first partition for tuple ids.
		if len(rs.Parts) == 0 {
			return nil, nil, fmt.Errorf("core: relation %q has no partitions", n.Name)
		}
		picks = append(picks, chosen{part: rs.Parts[0], pidx: 0})
	}
	// Encode and merge.
	var plan engine.Plan
	lay := &ULayout{}
	for i, pick := range picks {
		scan, slay := tr.encodePartition(pick.part, alias, pick.pidx, pick.contrib)
		slay.Picks = []PartPick{{Part: pick.pidx, DPairs: slay.DPairs}}
		if i == 0 {
			plan, lay = scan, slay
			continue
		}
		// merge(Q1, Q2) := π_{D1,D2,T1∪T2,A,B}(U1 ⋈_{α∧ψ} U2): α joins
		// the common tuple-id attributes, ψ discards inconsistent
		// descriptor combinations.
		alpha := engine.EqCols(lay.TIDs[0], slay.TIDs[0])
		cond := engine.And(alpha, psiCond(lay.DPairs, slay.DPairs))
		joined := engine.Join(plan, scan, cond)
		merged := &ULayout{
			DPairs: append(append([][2]string{}, lay.DPairs...), slay.DPairs...),
			TIDs:   lay.TIDs, // T1 ∪ T2 = T1 for partitions of one relation
			Attrs:  append(append([]string{}, lay.Attrs...), slay.Attrs...),
			Picks:  append(append([]PartPick{}, lay.Picks...), slay.Picks...),
		}
		plan = engine.Project(joined, merged.Columns()...)
		lay = merged
	}
	return plan, lay, nil
}

// encodePartition materializes one partition as an engine relation with
// unique column names: descriptor pairs "<alias>.p<j>.d<k>v/r", tuple id
// "tid:<alias>.p<j>", and the contributed attributes under their
// qualified logical names.
func (tr *translator) encodePartition(u *URelation, alias string, pidx int, contrib []string) (engine.Plan, *ULayout) {
	width := u.MaxDescriptorWidth()
	lay := &ULayout{}
	var cols []engine.Column
	for k := 0; k < width; k++ {
		vc := fmt.Sprintf("%s.p%d.d%dv", alias, pidx, k)
		rc := fmt.Sprintf("%s.p%d.d%dr", alias, pidx, k)
		lay.DPairs = append(lay.DPairs, [2]string{vc, rc})
		cols = append(cols,
			engine.Column{Name: vc, Kind: engine.KindInt},
			engine.Column{Name: rc, Kind: engine.KindInt})
	}
	tidCol := fmt.Sprintf("tid:%s.p%d", alias, pidx)
	lay.TIDs = []string{tidCol}
	cols = append(cols, engine.Column{Name: tidCol, Kind: engine.KindInt})
	// Column indexes of the contributed attributes.
	var attrIdx []int
	kinds := kindsOf(u)
	for _, a := range contrib {
		for ai, pa := range u.Attrs {
			if pa == a {
				q := alias + "." + a
				lay.Attrs = append(lay.Attrs, q)
				cols = append(cols, engine.Column{Name: q, Kind: kinds[ai]})
				attrIdx = append(attrIdx, ai)
				break
			}
		}
	}
	name := u.Name
	if alias != u.RelName {
		name = u.Name + "#" + alias
	}
	if u.Back != nil {
		// Storage-backed partition: plan a lazy segment scan instead of
		// materializing; cold data feeds the engine batch-by-batch.
		return u.Back.ScanPlan(engine.Schema{Cols: cols}, width, attrIdx, name), lay
	}
	// Every row is carved out of one value arena: two allocations per
	// partition instead of a tuple plus a padded descriptor per row.
	ncols := len(cols)
	arena := make([]engine.Value, len(u.Rows)*ncols)
	rows := make([]engine.Tuple, len(u.Rows))
	for i, r := range u.Rows {
		row := arena[i*ncols : (i+1)*ncols : (i+1)*ncols]
		for k := 0; k < width; k++ {
			a := r.D.PaddedAt(k, width)
			row[2*k] = engine.Int(int64(a.Var))
			row[2*k+1] = engine.Int(int64(a.Val))
		}
		row[2*width] = engine.Int(r.TID)
		for j, ai := range attrIdx {
			row[2*width+1+j] = r.Vals[ai]
		}
		rows[i] = row
	}
	return engine.Values(&engine.Relation{Sch: engine.Schema{Cols: cols}, Rows: rows}, name), lay
}

func kindsOf(u *URelation) []engine.Kind {
	if u.Back != nil {
		return u.Back.AttrKinds()
	}
	kinds := make([]engine.Kind, len(u.Attrs))
	for ai := range u.Attrs {
		for _, r := range u.Rows {
			if !r.Vals[ai].IsNull() {
				kinds[ai] = r.Vals[ai].K
				break
			}
		}
	}
	return kinds
}

// translateUnion implements the union of Figure 4's discussion: both
// sides are brought to a common schema by padding the smaller
// ws-descriptors with already-contained assignments (or the trivial
// assignment) and adding empty (NULL) tuple-id columns for the other
// side's relations; then a standard union applies.
func (tr *translator) translateUnion(n *UnionQ, need []string) (engine.Plan, *ULayout, error) {
	lAttrs, err := n.L.Attrs(tr.db)
	if err != nil {
		return nil, nil, err
	}
	rAttrs, err := n.R.Attrs(tr.db)
	if err != nil {
		return nil, nil, err
	}
	if len(lAttrs) != len(rAttrs) {
		return nil, nil, fmt.Errorf("core: union arity mismatch: %d vs %d", len(lAttrs), len(rAttrs))
	}
	// Map the needed attributes positionally to each side.
	var lNeed, rNeed []string
	if need != nil {
		for i, a := range lAttrs {
			if contains(need, a) {
				lNeed = append(lNeed, a)
				rNeed = append(rNeed, rAttrs[i])
			}
		}
		if len(lNeed) == 0 {
			// Keep at least one attribute for tuple existence.
			lNeed, rNeed = lAttrs[:1], rAttrs[:1]
		}
	}
	lp, ll, err := tr.translate(n.L, lNeed)
	if err != nil {
		return nil, nil, err
	}
	rp, rl, err := tr.translate(n.R, rNeed)
	if err != nil {
		return nil, nil, err
	}
	if len(ll.Attrs) != len(rl.Attrs) {
		return nil, nil, fmt.Errorf("core: union attr mismatch after translation: %v vs %v", ll.Attrs, rl.Attrs)
	}
	width := len(ll.DPairs)
	if len(rl.DPairs) > width {
		width = len(rl.DPairs)
	}
	if width == 0 {
		width = 1 // always carry at least the trivial descriptor
	}
	tr.unameCt++
	// Target layout: fresh descriptor column names, the union of both
	// sides' tuple-id columns, and the left side's attribute names.
	target := &ULayout{}
	for k := 0; k < width; k++ {
		target.DPairs = append(target.DPairs, [2]string{
			fmt.Sprintf("un%d.d%dv", tr.unameCt, k),
			fmt.Sprintf("un%d.d%dr", tr.unameCt, k),
		})
	}
	target.TIDs = append(append([]string{}, ll.TIDs...), rl.TIDs...)
	target.Attrs = ll.Attrs

	lSide, err := unionSide(lp, ll, target, width, ll.TIDs, rl.TIDs, ll.Attrs)
	if err != nil {
		return nil, nil, err
	}
	rSide, err := unionSide(rp, rl, target, width, ll.TIDs, rl.TIDs, rl.Attrs)
	if err != nil {
		return nil, nil, err
	}
	return engine.Union(lSide, rSide), target, nil
}

// unionSide pads one union input to the target layout. ownTIDsL/R give
// the target's tid column order (left's then right's); the side whose
// tid columns are absent gets NULL-extended.
func unionSide(p engine.Plan, lay, target *ULayout, width int, tidsL, tidsR, attrs []string) (engine.Plan, error) {
	var ext []engine.NamedExpr
	// Pad descriptors by repeating the first assignment (or trivial).
	var padV, padR engine.Expr
	if len(lay.DPairs) > 0 {
		padV = engine.Col(lay.DPairs[0][0])
		padR = engine.Col(lay.DPairs[0][1])
	} else {
		padV = engine.ConstInt(int64(ws.TrivialVar))
		padR = engine.ConstInt(0)
	}
	padCols := make([][2]string, width)
	for k := 0; k < width; k++ {
		if k < len(lay.DPairs) {
			padCols[k] = lay.DPairs[k]
			continue
		}
		vc := target.DPairs[k][0] + "~pad"
		rc := target.DPairs[k][1] + "~pad"
		ext = append(ext,
			engine.NamedExpr{Name: vc, E: padV, Kind: engine.KindInt},
			engine.NamedExpr{Name: rc, E: padR, Kind: engine.KindInt})
		padCols[k] = [2]string{vc, rc}
	}
	// NULL tuple-id columns for the other side's relations.
	own := map[string]bool{}
	for _, t := range lay.TIDs {
		own[t] = true
	}
	tidCols := make([]string, 0, len(tidsL)+len(tidsR))
	for _, t := range append(append([]string{}, tidsL...), tidsR...) {
		if own[t] {
			tidCols = append(tidCols, t)
			continue
		}
		nc := t + "~null"
		ext = append(ext, engine.NamedExpr{Name: nc, E: engine.Const(engine.Null()), Kind: engine.KindInt})
		tidCols = append(tidCols, nc)
	}
	if len(ext) > 0 {
		p = engine.Extend(p, ext...)
	}
	// Project into target positional order, then rename to the target's
	// column names.
	var order []string
	for k := 0; k < width; k++ {
		order = append(order, padCols[k][0], padCols[k][1])
	}
	order = append(order, tidCols...)
	order = append(order, attrs...)
	p = engine.Project(p, order...)
	return engine.Rename(p, target.Columns()), nil
}

// psiCond builds the ψ condition of Figure 4: for every descriptor pair
// (D', D”) across the two sides, D'.Var = D”.Var ⇒ D'.Rng = D”.Rng,
// i.e. (D'.Var <> D”.Var OR D'.Rng = D”.Rng).
func psiCond(a, b [][2]string) engine.Expr {
	var conjs []engine.Expr
	for _, da := range a {
		for _, db := range b {
			conjs = append(conjs, engine.Or(
				engine.Cmp(engine.NE, engine.Col(da[0]), engine.Col(db[0])),
				engine.Cmp(engine.EQ, engine.Col(da[1]), engine.Col(db[1])),
			))
		}
	}
	return engine.And(conjs...)
}

// extendNeed resolves extra attribute references (e.g. from a selection
// condition) against q's output attributes and unions them into need.
// A nil need stays nil (= all attributes).
func (tr *translator) extendNeed(q Query, need []string, extra []string) ([]string, error) {
	if need == nil {
		return nil, nil
	}
	attrs, err := q.Attrs(tr.db)
	if err != nil {
		return nil, err
	}
	out := append([]string{}, need...)
	for _, e := range extra {
		r, err := resolveAttr(e, attrs)
		if err != nil {
			return nil, err
		}
		if !contains(out, r) {
			out = append(out, r)
		}
	}
	return out, nil
}

// splitNeed selects, from need plus the join condition's attributes,
// those that belong to a side with output attributes sideAttrs.
func splitNeed(need []string, condAttrs []string, sideAttrs []string) ([]string, error) {
	if need == nil {
		return nil, nil
	}
	var out []string
	for _, a := range need {
		if contains(sideAttrs, a) {
			out = append(out, a)
		}
	}
	for _, c := range condAttrs {
		// Condition attrs may be unqualified; resolve if they belong to
		// this side, and ignore resolution failures (they belong to the
		// other side).
		if r, err := resolveAttr(c, sideAttrs); err == nil {
			if !contains(out, r) {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// checkCondBinds validates that every column reference in cond resolves
// uniquely against the given attribute names (SQL-style analysis before
// optimization; the engine's suffix resolution rejects ambiguity).
func checkCondBinds(cond engine.Expr, attrs []string) error {
	if cond == nil {
		return nil
	}
	cols := make([]engine.Column, len(attrs))
	for i, a := range attrs {
		cols[i] = engine.Column{Name: a}
	}
	sch := engine.Schema{Cols: cols}
	if _, err := cond.Bind(sch); err != nil {
		return fmt.Errorf("core: condition %s: %w", cond, err)
	}
	return nil
}
