package store

import (
	"fmt"

	"urel/internal/engine"
)

// StoreScanPlan is the leaf plan over one stored partition (all of its
// file layers plus the source's in-memory delta). It implements
// engine.SourcePlan (so Build lowers it and the estimators cost it
// without the engine importing this package) and engine.FilterAdvisor:
// a selection evaluated directly above the scan prunes file segments
// whose footer min/max statistics refute it, and the surviving row
// count is what EstimateRowCount reports — so the parallelism gate
// sees post-pruning cardinality. In-memory delta rows carry no
// statistics and are never pruned (they flow through the filter
// above), and tombstones are orthogonal to pruning: a pruned segment
// only loses rows the filter would reject anyway.
type StoreScanPlan struct {
	Src     *PartSource
	Sch     engine.Schema
	Width   int   // target descriptor width (>= stored width)
	AttrIdx []int // stored value-column index per schema attr column
	Name    string

	pruned [][]bool // per layer, per segment; nil until pruning bites
}

// Schema returns the scan's output schema.
func (p *StoreScanPlan) Schema(*engine.Catalog) (engine.Schema, error) { return p.Sch, nil }

// Children returns nil: the scan is a leaf.
func (p *StoreScanPlan) Children() []engine.Plan { return nil }

// WithChildren copies the node (leaves have no children to replace).
func (p *StoreScanPlan) WithChildren([]engine.Plan) engine.Plan { c := *p; return &c }

// Label renders the node for EXPLAIN, including the pruning outcome
// and any delta layers.
func (p *StoreScanPlan) Label() string {
	total := 0
	for _, h := range p.Src.Layers {
		total += h.NumSegments()
	}
	lbl := fmt.Sprintf("Store Scan on %s (%d/%d segments", p.Name, total-p.numPruned(), total)
	if len(p.Src.Layers) > 1 {
		lbl += fmt.Sprintf(", %d layers", len(p.Src.Layers))
	}
	if n := len(p.Src.Mem); n > 0 {
		lbl += fmt.Sprintf(", +%d delta rows", n)
	}
	if t := p.Src.tomb(); t != nil {
		lbl += fmt.Sprintf(", %d tombstones", t.Len())
	}
	return lbl + ")"
}

func (p *StoreScanPlan) numPruned() int {
	n := 0
	for _, layer := range p.pruned {
		for _, sk := range layer {
			if sk {
				n++
			}
		}
	}
	return n
}

// ColumnarScan marks the scan as a columnar leaf for EXPLAIN: its
// iterator serves the stored segment vectors directly.
func (p *StoreScanPlan) ColumnarScan() bool { return true }

// EstimateRowCount sums the rows of the surviving segments plus the
// in-memory delta.
func (p *StoreScanPlan) EstimateRowCount() float64 {
	rows := len(p.Src.Mem)
	for li, h := range p.Src.Layers {
		for i := 0; i < h.NumSegments(); i++ {
			if p.pruned == nil || p.pruned[li] == nil || !p.pruned[li][i] {
				rows += h.SegmentRows(i)
			}
		}
	}
	return float64(rows)
}

// BuildIter lowers the scan to its physical iterator.
func (p *StoreScanPlan) BuildIter(engine.ExecConfig) (engine.Iterator, error) {
	return &StoreScanIter{Src: p.Src, Sch: p.Sch, Width: p.Width, AttrIdx: p.AttrIdx, Pruned: p.pruned}, nil
}

// AdviseFilter inspects the conjuncts of a predicate that will be
// applied directly above the scan and marks segments that provably
// produce no satisfying row. Only column-vs-constant comparisons on
// value-attribute columns are used; everything else is ignored. The
// advice is safe because a comparison over NULL evaluates to false
// (engine.CmpExpr), so min/max over the non-null values — ordered by
// engine.Compare, the evaluator's own order — bound every row that
// could pass.
//
// The pruning decision is memoized per file layer on the partition
// handle, per canonical (stored column, op, constant) conjunct set, so
// a repeated selection — the common case under a serving workload with
// a plan cache — reuses the bitmap and its surviving-row count instead
// of re-testing every segment's statistics per query. Handles are
// immutable (flush and compaction publish new handles under new ids),
// so a memo entry can never go stale while a writer commits.
func (p *StoreScanPlan) AdviseFilter(cond engine.Expr) {
	attrStart := 2*p.Width + 1 // descriptor pairs, then tid, then attrs
	var cmps []colCmp
	key := ""
	for _, c := range engine.SplitConjuncts(cond) {
		ce, ok := c.(*engine.CmpExpr)
		if !ok {
			continue
		}
		col, cst, op, ok := engine.NormalizeColCmp(ce)
		if !ok {
			continue
		}
		si := p.Sch.IndexOf(col)
		if si < attrStart || si >= p.Sch.Len() {
			continue
		}
		stored := p.AttrIdx[si-attrStart]
		cmps = append(cmps, colCmp{stored: stored, op: op, cst: cst})
		key += fmt.Sprintf("a%d %s %s;", stored, op, cst.Quoted())
	}
	if len(cmps) == 0 {
		return
	}
	for li, h := range p.Src.Layers {
		res := h.prunedFor(key, cmps)
		if res.pruned == nil {
			continue
		}
		if p.pruned == nil {
			p.pruned = make([][]bool, len(p.Src.Layers))
		}
		if p.pruned[li] == nil {
			p.pruned[li] = make([]bool, h.NumSegments())
		}
		// Merge: stacked filters accumulate, and a segment refuted by
		// any advised predicate stays pruned.
		for i, sk := range res.pruned {
			if sk {
				p.pruned[li][i] = true
			}
		}
	}
}

// segmentRefutes reports whether no row of a segment can satisfy
// "col op cst" given the column's statistics.
func segmentRefutes(st colStats, op engine.CmpOp, cst engine.Value) bool {
	if st.NonNull == 0 {
		// Every value is NULL; NULL satisfies no comparison.
		return true
	}
	switch op {
	case engine.EQ:
		return engine.Compare(cst, st.Min) < 0 || engine.Compare(cst, st.Max) > 0
	case engine.NE:
		return engine.Compare(st.Min, st.Max) == 0 && engine.Compare(st.Min, cst) == 0
	case engine.LT:
		return engine.Compare(st.Min, cst) >= 0
	case engine.LE:
		return engine.Compare(st.Min, cst) > 0
	case engine.GT:
		return engine.Compare(st.Max, cst) <= 0
	case engine.GE:
		return engine.Compare(st.Max, cst) < 0
	default:
		return false
	}
}

// StoreScanIter is the cold-scan physical operator: an
// engine.ColBatchIterator whose file segments are already columnar, so
// NextColBatch wraps the decoded descriptor/tid/value vectors into an
// engine.ColBatch with no transposition at all — one batch per
// segment. Layers are scanned base-first, then the source's in-memory
// delta rows come out as a final batch. Tombstones narrow file
// batches through the selection vector (the decoded vectors stay
// zero-copy and shared; only live row indices are listed), so a
// partition without deletes pays nothing. The row paths
// (Next/NextBatch) materialize a tuple block per segment for consumers
// that want rows; a columnar consumer (a filter or projection directly
// above the scan) never pays that cost.
type StoreScanIter struct {
	Src     *PartSource
	Sch     engine.Schema
	Width   int
	AttrIdx []int
	Pruned  [][]bool // per layer, segments to skip (nil = scan everything)

	// SegmentsRead counts file segments actually fetched and decoded;
	// tests and EXPLAIN ANALYZE-style introspection read it after a
	// scan. CacheHits counts how many of those were served from the
	// shared decoded-segment cache; BytesDecoded is the encoded size of
	// the segments this scan itself fetched and decoded (misses only).
	SegmentsRead int
	CacheHits    int64
	BytesDecoded int64

	layer   int // current layer index
	seg     int // next segment index within the layer
	memDone bool
	rows    []engine.Tuple
	pos     int
	cb      engine.ColBatch // reused columnar batch header
	sel     []int32         // reused tombstone selection vector
	pad     []int64         // shared zero column for width padding
	tomb    TombSet
	tf      TombFilter // tombstones scoped to the current layer
	tfLayer int        // layer tf was computed for
}

// Open resets the scan to the first segment.
func (s *StoreScanIter) Open() error {
	s.layer = 0
	s.seg = 0
	s.memDone = len(s.Src.Mem) == 0
	s.rows = nil
	s.pos = 0
	s.SegmentsRead = 0
	s.CacheHits = 0
	s.BytesDecoded = 0
	s.tomb = s.Src.tomb()
	s.tf = nil
	s.tfLayer = -1
	if s.tomb != nil && len(s.Src.Layers) > 0 {
		s.tf = s.tomb.Layer(0)
		s.tfLayer = 0
	}
	return nil
}

// nextSegment decodes the next unpruned non-empty file segment,
// together with its layer's stored width. Returns nil at the end of
// the file layers (the in-memory delta is served separately).
func (s *StoreScanIter) nextSegment() (*segment, int, error) {
	for s.layer < len(s.Src.Layers) {
		h := s.Src.Layers[s.layer]
		if s.seg >= h.NumSegments() {
			s.layer++
			s.seg = 0
			continue
		}
		i := s.seg
		s.seg++
		if s.Pruned != nil && s.Pruned[s.layer] != nil && s.Pruned[s.layer][i] {
			continue
		}
		seg, hit, err := h.ReadSegmentStats(i)
		if err != nil {
			return nil, 0, err
		}
		s.SegmentsRead++
		if hit {
			s.CacheHits++
		} else {
			s.BytesDecoded += h.SegmentBytes(i)
		}
		if seg.n == 0 {
			continue
		}
		if s.tomb != nil && s.tfLayer != s.layer {
			s.tf = s.tomb.Layer(s.layer)
			s.tfLayer = s.layer
		}
		return seg, h.Width(), nil
	}
	return nil, 0, nil
}

// tombSel builds the selection vector of live rows for a decoded
// segment under the current layer's tombstone filter, or nil when
// every row survives.
func (s *StoreScanIter) tombSel(seg *segment, width int) ([]int32, error) {
	if s.tf == nil {
		return nil, nil
	}
	if s.sel == nil {
		// Non-nil even when empty: an all-dead segment must yield an
		// empty selection, not the nil "select everything".
		s.sel = make([]int32, 0, seg.n)
	}
	dead := 0
	sel := s.sel[:0]
	for r := 0; r < seg.n; r++ {
		if s.tf.HasTID(seg.tid[r]) {
			d, err := segDescriptor(seg, width, r)
			if err != nil {
				return nil, corruptf("row %d: %v", r, err)
			}
			if s.tf.Has(seg.tid[r], d) {
				dead++
				continue
			}
		}
		sel = append(sel, int32(r))
	}
	s.sel = sel
	if dead == 0 {
		return nil, nil
	}
	return sel, nil
}

// advance decodes the next unpruned segment (or the in-memory delta)
// into a tuple block. Returns false at end of stream.
func (s *StoreScanIter) advance() (bool, error) {
	for {
		seg, fw, err := s.nextSegment()
		if err != nil {
			return false, err
		}
		if seg == nil {
			if s.memDone {
				return false, nil
			}
			s.memDone = true
			rows, err := s.memTuples()
			if err != nil || len(rows) == 0 {
				return false, err
			}
			s.rows = rows
			s.pos = 0
			return true, nil
		}
		sel, err := s.tombSel(seg, fw)
		if err != nil {
			return false, err
		}
		s.materialize(seg, fw, sel)
		if len(s.rows) == 0 {
			continue
		}
		s.pos = 0
		return true, nil
	}
}

// materialize builds the segment's live tuples over one backing cell
// array, so batches handed upward are sub-slices with no per-row
// copying. sel lists the surviving physical rows (nil = all).
func (s *StoreScanIter) materialize(seg *segment, fw int, sel []int32) {
	n := seg.n
	if sel != nil {
		n = len(sel)
	}
	ncols := s.Sch.Len()
	cells := make([]engine.Value, n*ncols)
	rows := make([]engine.Tuple, n)
	for out := 0; out < n; out++ {
		r := out
		if sel != nil {
			r = int(sel[out])
		}
		t := cells[out*ncols : (out+1)*ncols : (out+1)*ncols]
		for k := 0; k < s.Width; k++ {
			// Pad to the target width by repeating the first stored pair
			// (the stored pairs are themselves already padded).
			src := k
			if src >= fw {
				src = 0
			}
			if fw == 0 {
				t[2*k] = engine.Int(0)
				t[2*k+1] = engine.Int(0)
			} else {
				t[2*k] = engine.Int(seg.dvar[src][r])
				t[2*k+1] = engine.Int(seg.drng[src][r])
			}
		}
		t[2*s.Width] = engine.Int(seg.tid[r])
		for j, ai := range s.AttrIdx {
			t[2*s.Width+1+j] = seg.cols[ai].Value(r)
		}
		rows[out] = t
	}
	s.rows = rows
}

// memTuples materializes the in-memory delta rows in the scan's
// schema (padded descriptor pairs, tid, selected attributes). Delta
// rows are never tombstone-filtered: commits remove deleted memtable
// rows eagerly, so whatever remains is live by construction.
func (s *StoreScanIter) memTuples() ([]engine.Tuple, error) {
	mem := s.Src.Mem
	ncols := s.Sch.Len()
	out := make([]engine.Tuple, 0, len(mem))
	for _, r := range mem {
		t := make(engine.Tuple, ncols)
		for k := 0; k < s.Width; k++ {
			a := r.D.PaddedAt(k, s.Width)
			t[2*k] = engine.Int(int64(a.Var))
			t[2*k+1] = engine.Int(int64(a.Val))
		}
		t[2*s.Width] = engine.Int(r.TID)
		for j, ai := range s.AttrIdx {
			t[2*s.Width+1+j] = r.Vals[ai]
		}
		out = append(out, t)
	}
	return out, nil
}

// NextColBatch serves one file segment per batch, handing the decoded
// segment vectors to the engine directly: descriptor and tid columns
// as typed int vectors, value columns as their decoded typed vectors.
// This is the path that deletes the row transpose — decoded segments
// are immutable and shared (see SegCache), so the vectors are served
// zero-copy; tombstones only narrow the batch's selection vector. The
// in-memory delta comes out last as one transposed batch.
func (s *StoreScanIter) NextColBatch() (*engine.ColBatch, bool, error) {
	for {
		seg, fw, err := s.nextSegment()
		if err != nil {
			return nil, false, err
		}
		if seg == nil {
			if s.memDone {
				return nil, false, nil
			}
			s.memDone = true
			rows, err := s.memTuples()
			if err != nil || len(rows) == 0 {
				return nil, false, err
			}
			s.memColBatch(rows)
			return &s.cb, true, nil
		}
		sel, err := s.tombSel(seg, fw)
		if err != nil {
			return nil, false, err
		}
		if sel != nil && len(sel) == 0 {
			continue
		}
		ncols := s.Sch.Len()
		if cap(s.cb.Cols) < ncols {
			s.cb.Cols = make([]engine.ColVec, ncols)
		}
		cols := s.cb.Cols[:ncols]
		for k := 0; k < s.Width; k++ {
			src := k
			if src >= fw {
				src = 0
			}
			if fw == 0 {
				z := s.zeroPad(seg.n)
				cols[2*k] = engine.IntVec(z, nil)
				cols[2*k+1] = engine.IntVec(z, nil)
			} else {
				cols[2*k] = engine.IntVec(seg.dvar[src], nil)
				cols[2*k+1] = engine.IntVec(seg.drng[src], nil)
			}
		}
		cols[2*s.Width] = engine.IntVec(seg.tid, nil)
		for j, ai := range s.AttrIdx {
			cols[2*s.Width+1+j] = seg.cols[ai]
		}
		s.cb = engine.ColBatch{Sch: s.Sch, Cols: cols, N: seg.n, Sel: sel}
		return &s.cb, true, nil
	}
}

// memColBatch transposes the delta tuples into the reused batch
// header as generic vectors (the delta is the small tail of a scan).
func (s *StoreScanIter) memColBatch(rows []engine.Tuple) {
	ncols := s.Sch.Len()
	n := len(rows)
	if cap(s.cb.Cols) < ncols {
		s.cb.Cols = make([]engine.ColVec, ncols)
	}
	cols := s.cb.Cols[:ncols]
	arena := make([]engine.Value, n*ncols)
	for c := 0; c < ncols; c++ {
		vals := arena[c*n : (c+1)*n : (c+1)*n]
		for r, row := range rows {
			vals[r] = row[c]
		}
		cols[c] = engine.GenericVec(vals)
	}
	s.cb = engine.ColBatch{Sch: s.Sch, Cols: cols, N: n}
}

// ColumnarNative reports that the scan serves columns without any
// transpose (the in-memory delta tail is the one small exception).
func (s *StoreScanIter) ColumnarNative() bool { return true }

// zeroPad returns a shared all-zero int column of length n (only used
// for databases stored with descriptor width zero).
func (s *StoreScanIter) zeroPad(n int) []int64 {
	if len(s.pad) < n {
		s.pad = make([]int64, n)
	}
	return s.pad[:n]
}

// NextBatch returns up to engine.DefaultBatchSize tuples per call.
func (s *StoreScanIter) NextBatch() ([]engine.Tuple, bool, error) {
	for s.pos >= len(s.rows) {
		ok, err := s.advance()
		if err != nil || !ok {
			return nil, false, err
		}
	}
	end := s.pos + engine.DefaultBatchSize
	if end > len(s.rows) {
		end = len(s.rows)
	}
	batch := s.rows[s.pos:end]
	s.pos = end
	return batch, true, nil
}

// Next serves the single-tuple Volcano interface from the same
// segment block.
func (s *StoreScanIter) Next() (engine.Tuple, bool, error) {
	for s.pos >= len(s.rows) {
		ok, err := s.advance()
		if err != nil || !ok {
			return nil, false, err
		}
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

// Close releases the scan's references (the shared handles stay open).
// The stat counters survive Close so tracing can collect them.
func (s *StoreScanIter) Close() error {
	s.rows = nil
	return nil
}

// OperatorStats reports the scan's store-side effects to a trace span
// (engine.OperatorStats): segments fetched, segments skipped by
// min/max pruning, shared-cache hits, and bytes this scan fetched and
// decoded itself.
func (s *StoreScanIter) OperatorStats(emit func(key string, v int64)) {
	emit("segments_read", int64(s.SegmentsRead))
	emit("cache_hits", s.CacheHits)
	emit("bytes_decoded", s.BytesDecoded)
	var pruned int64
	for _, layer := range s.Pruned {
		for _, sk := range layer {
			if sk {
				pruned++
			}
		}
	}
	emit("segments_pruned", pruned)
}

// Schema returns the scan's output schema.
func (s *StoreScanIter) Schema() engine.Schema { return s.Sch }
