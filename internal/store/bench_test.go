package store

import (
	"fmt"
	"path/filepath"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/tpch"
)

// benchScanRows builds a 3-attribute partition (int, float, string).
func benchScanRows(n int) []core.URow {
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	rows := make([]core.URow, n)
	for i := range rows {
		rows[i] = core.URow{TID: int64(i), Vals: []engine.Value{
			engine.Int(int64(i)),
			engine.Float(float64(i) * 0.5),
			engine.Str(words[i%len(words)]),
		}}
	}
	return rows
}

func benchScanSchema() engine.Schema {
	return engine.NewSchema(
		engine.Column{Name: "tid:r.p0", Kind: engine.KindInt},
		engine.Column{Name: "r.a", Kind: engine.KindInt},
		engine.Column{Name: "r.b", Kind: engine.KindFloat},
		engine.Column{Name: "r.c", Kind: engine.KindString},
	)
}

// BenchmarkStoreScan compares a cold segment-file scan against the
// equivalent in-memory relation scan, plus the pruned cold scan under
// a selective range predicate — the numbers recorded in CHANGES.md.
func BenchmarkStoreScan(b *testing.B) {
	b.ReportAllocs()
	const n = 200000
	rows := benchScanRows(n)
	path := filepath.Join(b.TempDir(), "bench.useg")
	if _, err := WritePartition(path, rows, 3, DefaultSegmentRows); err != nil {
		b.Fatal(err)
	}
	h, err := OpenPart(path)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	sch := benchScanSchema()
	attrIdx := []int{0, 1, 2}

	mem := engine.NewRelation(sch)
	for _, r := range rows {
		mem.Append(engine.Tuple{engine.Int(r.TID), r.Vals[0], r.Vals[1], r.Vals[2]})
	}

	b.Run(fmt.Sprintf("cold-%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it := &StoreScanIter{Src: srcOf(h), Sch: sch, Width: 0, AttrIdx: attrIdx}
			rel, err := engine.Drain(it)
			if err != nil || rel.Len() != n {
				b.Fatalf("scan: %d rows, err %v", rel.Len(), err)
			}
		}
	})
	b.Run(fmt.Sprintf("memory-%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rel, err := engine.Drain(engine.NewScan(mem))
			if err != nil || rel.Len() != n {
				b.Fatalf("scan: %d rows, err %v", rel.Len(), err)
			}
		}
	})
	// A 5%-selective range predicate: pruning skips ~95% of segments.
	cond := engine.Cmp(engine.GE, engine.Col("r.a"), engine.ConstInt(n-n/20))
	b.Run(fmt.Sprintf("cold-pruned-%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan := &StoreScanPlan{Src: srcOf(h), Sch: sch, Width: 0, AttrIdx: attrIdx, Name: "bench"}
			it, err := engine.Build(engine.Filter(plan, cond), engine.NewCatalog(), engine.ExecConfig{})
			if err != nil {
				b.Fatal(err)
			}
			rel, err := engine.Drain(it)
			if err != nil || rel.Len() != n/20 {
				b.Fatalf("scan: %d rows, err %v", rel.Len(), err)
			}
		}
	})
	b.Run(fmt.Sprintf("memory-filter-%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rel, err := engine.Drain(engine.NewFilter(engine.NewScan(mem), cond))
			if err != nil || rel.Len() != n/20 {
				b.Fatalf("scan: %d rows, err %v", rel.Len(), err)
			}
		}
	})
}

// BenchmarkSaveOpen measures snapshotting and reopening a partition.
func BenchmarkSaveOpen(b *testing.B) {
	b.ReportAllocs()
	const n = 100000
	rows := benchScanRows(n)
	dir := b.TempDir()
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := WritePartition(filepath.Join(dir, "s.useg"), rows, 3, DefaultSegmentRows); err != nil {
				b.Fatal(err)
			}
		}
	})
	if _, err := WritePartition(filepath.Join(dir, "s.useg"), rows, 3, DefaultSegmentRows); err != nil {
		b.Fatal(err)
	}
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, err := OpenPart(filepath.Join(dir, "s.useg"))
			if err != nil {
				b.Fatal(err)
			}
			h.Close()
		}
	})
}

// benchCatalog is the serving benchmark's dataset: uncertain TPC-H at
// s=0.5, x=0.01, z=0.25 (30k lineitems).
func benchCatalog(b *testing.B) *core.UDB {
	b.Helper()
	db, _, err := tpch.Generate(tpch.DefaultParams(0.5, 0.01, 0.25))
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkSave measures snapshotting a whole catalog: encoding every
// partition, its footer statistics (distinct counts included) and the
// world table.
func BenchmarkSave(b *testing.B) {
	db := benchCatalog(b)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Save(db, dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedSave measures splitting the same catalog across two
// shard directories, lineitem and orders hash-partitioned by tuple id.
func BenchmarkShardedSave(b *testing.B) {
	db := benchCatalog(b)
	root := b.TempDir()
	dirs := []string{filepath.Join(root, "shard0"), filepath.Join(root, "shard1")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ShardedSave(db, dirs, []string{"lineitem", "orders"}); err != nil {
			b.Fatal(err)
		}
	}
}
