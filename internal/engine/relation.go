package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Relation is an in-memory table: a schema plus a bag of tuples. The
// engine uses bag semantics internally; Distinct converts to set
// semantics where the algebra requires it (e.g. poss, union).
type Relation struct {
	Sch  Schema
	Rows []Tuple

	stats atomic.Pointer[statsMemo] // see Stats
}

// statsMemo is the statistics of Rows as they were when computed,
// keyed by the row count and backing array they were computed on.
type statsMemo struct {
	ts   *TableStats
	n    int
	base *Tuple
}

// statsComputations counts statistics computations by Stats, so tests
// can check that the optimizer reuses them.
var statsComputations atomic.Int64

// Stats returns the relation's statistics, computing them on first use
// and reusing them until the rows change. Append drops them; because
// Rows is an exported field they are also recomputed whenever its
// length or backing array differs from what they were computed on.
// Rewriting rows in place under the same slice is not detected; call
// Catalog.Put (or Append) after such edits. Safe for concurrent use by
// readers of the relation.
func (r *Relation) Stats() *TableStats {
	var base *Tuple
	if len(r.Rows) > 0 {
		base = &r.Rows[0]
	}
	if m := r.stats.Load(); m != nil && m.n == len(r.Rows) && m.base == base {
		return m.ts
	}
	statsComputations.Add(1)
	ts := ComputeStats(r)
	r.stats.Store(&statsMemo{ts: ts, n: len(r.Rows), base: base})
	return ts
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(sch Schema) *Relation {
	return &Relation{Sch: sch}
}

// Append adds a row. The row length must match the schema; this is
// checked because U-relation encodings are assembled programmatically
// and width bugs must fail loudly.
func (r *Relation) Append(t Tuple) {
	if len(t) != r.Sch.Len() {
		panic(fmt.Sprintf("engine: row width %d != schema width %d (%v)",
			len(t), r.Sch.Len(), r.Sch.Names()))
	}
	r.Rows = append(r.Rows, t)
	if r.stats.Load() != nil {
		r.stats.Store(nil)
	}
}

// AppendVals adds a row built from the given values.
func (r *Relation) AppendVals(vals ...Value) { r.Append(Tuple(vals)) }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{Sch: r.Sch, Rows: make([]Tuple, len(r.Rows))}
	for i, t := range r.Rows {
		out.Rows[i] = t.Clone()
	}
	return out
}

// SizeBytes estimates the in-memory footprint of the relation's data,
// used for the Figure 9 "dbsize" reproduction.
func (r *Relation) SizeBytes() int64 {
	var n int64
	for _, t := range r.Rows {
		for _, v := range t {
			n += int64(v.SizeBytes())
		}
		n += 24 // slice header
	}
	return n
}

// Sorted returns a copy of the rows sorted lexicographically; useful for
// deterministic comparisons in tests.
func (r *Relation) Sorted() []Tuple {
	rows := make([]Tuple, len(r.Rows))
	copy(rows, r.Rows)
	sort.Slice(rows, func(i, j int) bool { return CompareTuples(rows[i], rows[j]) < 0 })
	return rows
}

// Distinct returns a new relation with duplicate rows removed.
func (r *Relation) Distinct() *Relation {
	out := NewRelation(r.Sch)
	seen := make(map[string]struct{}, len(r.Rows))
	for _, t := range r.Rows {
		k := KeyString(t)
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out.Rows = append(out.Rows, t)
	}
	return out
}

// EqualAsSet reports whether two relations contain the same set of
// tuples (ignoring order and multiplicity). Schemas must have the same
// width; column names are not compared.
func (r *Relation) EqualAsSet(o *Relation) bool {
	if r.Sch.Len() != o.Sch.Len() {
		return false
	}
	a := make(map[string]struct{})
	for _, t := range r.Rows {
		a[KeyString(t)] = struct{}{}
	}
	b := make(map[string]struct{})
	for _, t := range o.Rows {
		b[KeyString(t)] = struct{}{}
	}
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// EqualAsBag reports whether two relations contain the same multiset of
// tuples (ignoring order).
func (r *Relation) EqualAsBag(o *Relation) bool {
	if r.Sch.Len() != o.Sch.Len() || len(r.Rows) != len(o.Rows) {
		return false
	}
	counts := make(map[string]int)
	for _, t := range r.Rows {
		counts[KeyString(t)]++
	}
	for _, t := range o.Rows {
		k := KeyString(t)
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// String renders the relation as an aligned text table (for examples and
// debugging; deterministic given row order).
func (r *Relation) String() string {
	var b strings.Builder
	names := r.Sch.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(r.Rows))
	for ri, t := range r.Rows {
		cells[ri] = make([]string, len(t))
		for ci, v := range t {
			s := v.String()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	writeRow := func(vals []string) {
		for ci, s := range vals {
			if ci > 0 {
				b.WriteString("  ")
			}
			b.WriteString(s)
			for p := len(s); p < widths[ci]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	sep := make([]string, len(names))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// Catalog maps relation names to stored relations. It is the engine's
// "database"; statistics live on the relations themselves.
type Catalog struct {
	rels map[string]*Relation
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{rels: map[string]*Relation{}}
}

// Put registers (or replaces) a relation under name. Its statistics are
// recomputed lazily (on first use), also when r was edited in place.
func (c *Catalog) Put(name string, r *Relation) {
	r.stats.Store(nil)
	c.rels[name] = r
}

// Get returns the named relation or an error.
func (c *Catalog) Get(name string) (*Relation, error) {
	r, ok := c.rels[name]
	if !ok {
		return nil, fmt.Errorf("engine: relation %q not in catalog", name)
	}
	return r, nil
}

// MustGet is Get that panics; for tests and examples.
func (c *Catalog) MustGet(name string) *Relation {
	r, err := c.Get(name)
	if err != nil {
		panic(err)
	}
	return r
}

// Names returns the sorted relation names.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.rels))
	for n := range c.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Stats returns (computing and caching on demand) statistics for the
// named relation, or nil if the relation does not exist.
func (c *Catalog) Stats(name string) *TableStats {
	r, ok := c.rels[name]
	if !ok {
		return nil
	}
	return r.Stats()
}

// SizeBytes sums the footprint of all relations in the catalog.
func (c *Catalog) SizeBytes() int64 {
	var n int64
	for _, r := range c.rels {
		n += r.SizeBytes()
	}
	return n
}
