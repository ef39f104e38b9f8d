package txn

import (
	"fmt"
	"testing"

	"urel/internal/engine"
	"urel/internal/store"
)

// checkLeafStats compares the footer statistics every stored partition
// of d's current snapshot plans with against its live rows: the row
// count is the stored count, and each tuple-id and value column's NDV
// is known, at most the row count and at least the true distinct count
// — exactly the true count when exact is set (one layer, no memtable,
// no tombstoned rows).
func checkLeafStats(t *testing.T, d *DB, stage string, exact bool) {
	t.Helper()
	snap := d.Snapshot()
	for _, rel := range snap.RelNames() {
		for pi, p := range snap.Rels[rel].Parts {
			src, ok := p.Back.(*store.PartSource)
			if !ok {
				t.Fatalf("%s: %s/%d has no stored backing", stage, rel, pi)
			}
			width := src.DescriptorWidth()
			var cols []engine.Column
			for k := 0; k < width; k++ {
				cols = append(cols, engine.Column{Name: fmt.Sprintf("d%dv", k)}, engine.Column{Name: fmt.Sprintf("d%dr", k)})
			}
			cols = append(cols, engine.Column{Name: "tid"})
			attrIdx := make([]int, len(p.Attrs))
			for ai, a := range p.Attrs {
				cols = append(cols, engine.Column{Name: a})
				attrIdx[ai] = ai
			}
			leaf, ok := p.Back.ScanPlan(engine.Schema{Cols: cols}, width, attrIdx, p.Name).(engine.StatsSource)
			if !ok {
				t.Fatalf("%s: %s/%d: stored leaf does not report statistics", stage, rel, pi)
			}
			st := leaf.LeafStats()
			if st.Rows != float64(src.NumRows()) {
				t.Fatalf("%s: %s/%d: rows %v, stored %d", stage, rel, pi, st.Rows, src.NumRows())
			}
			rows, err := p.Back.Load()
			if err != nil {
				t.Fatal(err)
			}
			live := engine.NewRelation(engine.Schema{Cols: cols[2*width:]})
			for _, r := range rows {
				live.Append(append(engine.Tuple{engine.Int(r.TID)}, r.Vals...))
			}
			truth := engine.ComputeStats(live)
			for _, c := range cols[2*width:] {
				got, ok := st.Cols[c.Name]
				want := truth.Cols[c.Name].NDV
				switch {
				case !ok:
					t.Errorf("%s: %s/%d column %s: NDV unknown", stage, rel, pi, c.Name)
				case got.NDV > st.Rows || got.NDV < want:
					t.Errorf("%s: %s/%d column %s: NDV %v outside [true %v, rows %v]", stage, rel, pi, c.Name, got.NDV, want, st.Rows)
				case exact && got.NDV != want:
					t.Errorf("%s: %s/%d column %s: NDV %v, true %v", stage, rel, pi, c.Name, got.NDV, want)
				}
			}
		}
	}
}

// TestLeafStatsThroughFlushAndCompaction drives the write path —
// memtable, flushed delta layers, tombstones, compaction — and checks
// after each step that the statistics stored leaves plan with stay
// sound bounds on the live rows, and exact once compaction rewrites one
// base per partition.
func TestLeafStatsThroughFlushAndCompaction(t *testing.T) {
	dir := t.TempDir()
	if err := store.Save(fixtureDB(), dir); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	run := func(sql string) {
		t.Helper()
		if _, err := d.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	checkLeafStats(t, d, "saved", true)
	run("insert into s values (10, 1), (11, 1), (12, 2)")
	run("insert into r values (7, 70, 700)")
	checkLeafStats(t, d, "memtable", false)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	run("insert into s values (13, 1), (14, 3)")
	run("delete from s where x = 11")
	checkLeafStats(t, d, "flushed delta + memtable + tombstone", false)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	checkLeafStats(t, d, "compacted", true)
}
