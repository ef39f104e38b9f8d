package store

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/tpch"
)

var (
	// A Filter node over a store scan, as EXPLAIN prints it: the filter
	// line, its condition, then the scan one level down.
	storeFilterRe = regexp.MustCompile(`(?m)^(\s*(?:->  )?)Filter  (\(rows=\d+) exec=\w+\)\n(\s*)      Cond: (.*)\n\s*->  Store Scan on (\S+) \([^)]*\)  \(rows=\d+ exec=\w+\)$`)
	leafRe        = regexp.MustCompile(`(?:Seq|Store) Scan on (\S+)(?: \([^)]*\))?  `)
	execRe        = regexp.MustCompile(` exec=\w+\)`)
)

// normalizeExplain makes the EXPLAIN of a plan over stored partitions
// comparable with the EXPLAIN of the same plan over in-memory ones:
// a Filter over a store scan is fused into the scan line the way
// EXPLAIN fuses filters over in-memory leaves, leaf labels lose their
// scan kind and segment counts, and execution modes are dropped. Plan
// shape, join algorithms, conditions and every estimate are kept.
func normalizeExplain(s string) string {
	s = storeFilterRe.ReplaceAllString(s, "${1}Scan on $5  $2 exec=row)\n$3      Filter: $4")
	s = leafRe.ReplaceAllString(s, "Scan on $1  ")
	return execRe.ReplaceAllString(s, ")")
}

// TestColdPlansMatchInMemory saves the cold benchmark dataset (s=0.35,
// x=0.01, z=0.25) and reopens it: the optimizer must plan Q1–Q3 over
// the stored partitions exactly as over the in-memory ones — same
// shape, same join algorithms, same estimates, since footer statistics
// equal the in-memory ones — and Q1 must not fall back to a nested-loop
// cross product. Answers must be equal. The same catalog rewritten in
// the version 1 layout (no footer distinct counts) must still return
// equal answers and keep Q1 off the cross product.
func TestColdPlansMatchInMemory(t *testing.T) {
	mem, _, err := tpch.Generate(tpch.DefaultParams(0.35, 0.01, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(mem, dir); err != nil {
		t.Fatal(err)
	}
	open := func() *core.UDB {
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	explain := func(db *core.UDB, name string, q core.Query) string {
		s, err := db.ExplainQuery(q, true)
		if err != nil {
			t.Fatalf("%s: explain: %v", name, err)
		}
		return s
	}
	answers := map[string]*engine.Relation{}
	cold := open()
	for name, q := range tpch.Queries() {
		memPlan, coldPlan := explain(mem, name, q), explain(cold, name, q)
		if normalizeExplain(memPlan) != normalizeExplain(coldPlan) {
			t.Errorf("%s: stored plan differs from the in-memory plan\n--- in memory:\n%s--- stored:\n%s", name, memPlan, coldPlan)
		}
		if name == "Q1" && strings.Contains(coldPlan, "Nested Loop") {
			t.Errorf("Q1 over the store plans a nested loop:\n%s", coldPlan)
		}
		want, err := mem.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cold.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsBag(want) {
			t.Errorf("%s: stored answers differ from in-memory answers (%d vs %d rows)", name, got.Len(), want.Len())
		}
		answers[name] = want
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.useg"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no partition files in %s (%v)", dir, err)
	}
	for _, path := range files {
		rewriteAsV1(t, path)
	}
	v1 := open()
	for name, q := range tpch.Queries() {
		if plan := explain(v1, name, q); name == "Q1" && strings.Contains(plan, "Nested Loop") {
			t.Errorf("Q1 over a version 1 catalog plans a nested loop:\n%s", plan)
		}
		got, err := v1.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsBag(answers[name]) {
			t.Errorf("%s: version 1 catalog answers differ (%d vs %d rows)", name, got.Len(), answers[name].Len())
		}
	}
}
