package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// splitFile returns the footer offset and the footer bytes of an
// encoded partition file.
func splitFile(buf []byte) (int, []byte) {
	off := int(binary.LittleEndian.Uint64(buf[len(buf)-tailLen:]))
	return off, buf[off : len(buf)-tailLen]
}

// withFooter rebuilds a partition file around a replacement footer: the
// magic and segment payloads of buf, then footer, then a fresh tail.
func withFooter(buf []byte, magic string, footer []byte) []byte {
	off, _ := splitFile(buf)
	out := append([]byte(magic), buf[len(magic):off]...)
	out = append(out, footer...)
	out = appendFixed64(out, uint64(off))
	return append(out, tailMagic...)
}

// rewriteAsV1 rewrites a partition file in the version 1 layout — the
// current layout without the footer's distinct counts — as a file
// written before those counts existed.
func rewriteAsV1(t testing.TB, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewPartHandle(bytes.NewReader(buf), int64(len(buf)))
	if err != nil {
		t.Fatal(err)
	}
	meta := *h.meta
	meta.NDV = nil
	if err := os.WriteFile(path, withFooter(buf, fileMagicV1, appendFooter(nil, &meta)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeV1 writes rows as a version 1 partition file.
func writeV1(t testing.TB, path string, rows []core.URow, nattrs, segRows int) {
	t.Helper()
	if _, err := WritePartition(path, rows, nattrs, segRows); err != nil {
		t.Fatal(err)
	}
	rewriteAsV1(t, path)
}

// scanOf builds the leaf plan core's translation would build over src,
// with every stored attribute projected.
func scanOf(src *PartSource, nattrs int) *StoreScanPlan {
	width := src.DescriptorWidth()
	var cols []engine.Column
	for k := 0; k < width; k++ {
		cols = append(cols,
			engine.Column{Name: fmt.Sprintf("r.p0.d%dv", k), Kind: engine.KindInt},
			engine.Column{Name: fmt.Sprintf("r.p0.d%dr", k), Kind: engine.KindInt})
	}
	cols = append(cols, engine.Column{Name: "tid:r.p0", Kind: engine.KindInt})
	attrIdx := make([]int, nattrs)
	for i := range attrIdx {
		cols = append(cols, engine.Column{Name: fmt.Sprintf("r.a%d", i)})
		attrIdx[i] = i
	}
	return &StoreScanPlan{Src: src, Sch: engine.NewSchema(cols...), Width: width, AttrIdx: attrIdx, Name: "r"}
}

// statCols lists the columns a stored leaf has statistics for.
func statCols(p *StoreScanPlan) []string {
	return p.Sch.Names()[2*p.Width:]
}

// ndvColumnGens generate one cell of a random partition column each.
var ndvColumnGens = []func(*rand.Rand) engine.Value{
	// ints with NULLs, dense enough for the bitset
	func(rng *rand.Rand) engine.Value {
		if rng.Intn(6) == 0 {
			return engine.Null()
		}
		return engine.Int(rng.Int63n(50))
	},
	// a wide int range that skips the bitset
	func(rng *rand.Rand) engine.Value { return engine.Int(rng.Int63n(1<<50) - 1<<49) },
	// Int(k) next to Float(k): a mixed column, one value per k
	func(rng *rand.Rand) engine.Value {
		k := rng.Int63n(30)
		if rng.Intn(2) == 0 {
			return engine.Float(float64(k))
		}
		return engine.Int(k)
	},
	// floats, including both zeros
	func(rng *rand.Rand) engine.Value {
		if rng.Intn(10) == 0 {
			return engine.Float(math.Copysign(0, -1))
		}
		return engine.Float(float64(rng.Intn(40)) / 4)
	},
	// strings with NULLs
	func(rng *rand.Rand) engine.Value {
		if rng.Intn(5) == 0 {
			return engine.Null()
		}
		return engine.Str(fmt.Sprint("s", rng.Intn(60)))
	},
	func(rng *rand.Rand) engine.Value { return engine.Bool(rng.Intn(2) == 0) },
	func(*rand.Rand) engine.Value { return engine.Null() },
}

// randomPartition builds n rows over every ndvColumnGens column, with
// tuple ids in write order (sorted, several alternatives per id) or
// shuffled as a flush of the memtable writes them.
func randomPartition(rng *rand.Rand, n int, sortedTIDs bool) []core.URow {
	rows := make([]core.URow, n)
	for i := range rows {
		tid := int64(i / 3)
		if !sortedTIDs {
			tid = rng.Int63n(int64(n/2 + 1))
		}
		var d ws.Descriptor
		if i%2 == 1 {
			d = ws.MustDescriptor(ws.A(ws.Var(1+i%4), ws.Val(1+i%3)))
		}
		vals := make([]engine.Value, len(ndvColumnGens))
		for ci, gen := range ndvColumnGens {
			vals[ci] = gen(rng)
		}
		rows[i] = core.URow{D: d, TID: tid, Vals: vals}
	}
	return rows
}

// TestFooterNDVMatchesComputeStats is the parity property: the distinct
// counts a stored leaf reports from its footer equal what
// engine.ComputeStats computes over the same rows loaded from the file.
func TestFooterNDVMatchesComputeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nattrs := len(ndvColumnGens)
	for _, n := range []int{0, 1, 7, 300, 5000} {
		for _, sorted := range []bool{true, false} {
			rows := randomPartition(rng, n, sorted)
			h, err := OpenPart(writeTemp(t, rows, nattrs, 512))
			if err != nil {
				t.Fatal(err)
			}
			for c, v := range h.meta.NDV {
				if v > n || (n > 0 && v == 0) {
					t.Fatalf("n=%d column %d: footer NDV %d for %d rows", n, c, v, n)
				}
			}
			plan := scanOf(srcOf(h), nattrs)
			it, err := plan.BuildIter(engine.ExecConfig{})
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := engine.Drain(it)
			if err != nil {
				t.Fatal(err)
			}
			got, want := plan.LeafStats(), engine.ComputeStats(loaded)
			if got.Rows != want.Rows {
				t.Fatalf("n=%d sorted=%v: rows %v, ComputeStats %v", n, sorted, got.Rows, want.Rows)
			}
			for _, col := range statCols(plan) {
				if g, w := got.Cols[col].NDV, want.Cols[col].NDV; g != w {
					t.Errorf("n=%d sorted=%v column %s: footer NDV %v, ComputeStats NDV %v", n, sorted, col, g, w)
				}
			}
			h.Close()
		}
	}
}

// TestLayerNDVMergeRule checks the distinct counts of a partition that
// is a base file, two flushed delta files and an in-memory delta:
// min(rows, Σ layer NDV + len(Mem)) per column, never below the true
// count of the merged rows, and unknown as soon as one layer is a
// version 1 file.
func TestLayerNDVMergeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nattrs := len(ndvColumnGens)
	dir := t.TempDir()
	var layers []*PartHandle
	for i, n := range []int{400, 60, 25} {
		path := filepath.Join(dir, fmt.Sprintf("l%d.useg", i))
		if _, err := WritePartition(path, randomPartition(rng, n, i == 0), nattrs, 128); err != nil {
			t.Fatal(err)
		}
		h, err := OpenPart(path)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		layers = append(layers, h)
	}
	mem := randomPartition(rng, 9, false)

	// A lone layer reports its exact counts.
	lone := scanOf(&PartSource{Layers: layers[:1]}, nattrs)
	for c, col := range statCols(lone) {
		if got, want := lone.LeafStats().Cols[col].NDV, float64(layers[0].meta.NDV[c]); got != want {
			t.Errorf("lone layer column %s: NDV %v, footer %v", col, got, want)
		}
	}

	src := &PartSource{Layers: layers, Mem: mem}
	plan := scanOf(src, nattrs)
	st := plan.LeafStats()
	if st.Rows != float64(400+60+25+9) {
		t.Fatalf("rows = %v", st.Rows)
	}
	it, err := plan.BuildIter(engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := engine.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	truth := engine.ComputeStats(merged)
	for c, col := range statCols(plan) {
		sum := len(mem)
		for _, h := range layers {
			sum += h.meta.NDV[c]
		}
		want := math.Max(1, math.Min(st.Rows, float64(sum)))
		got, ok := st.Cols[col]
		if !ok || got.NDV != want {
			t.Errorf("column %s: NDV %v (known %v), want min(rows, Σ) = %v", col, got.NDV, ok, want)
		}
		if got.NDV < truth.Cols[col].NDV {
			t.Errorf("column %s: merged NDV %v below the true count %v", col, got.NDV, truth.Cols[col].NDV)
		}
	}

	// One version 1 layer makes every count unknown.
	v1 := filepath.Join(dir, "v1.useg")
	writeV1(t, v1, randomPartition(rng, 30, false), nattrs, 128)
	h1, err := OpenPart(v1)
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Close()
	mixed := scanOf(&PartSource{Layers: append(append([]*PartHandle{}, layers...), h1), Mem: mem}, nattrs)
	if cols := mixed.LeafStats().Cols; len(cols) != 0 {
		t.Fatalf("a version 1 layer must leave NDV unknown, got %v", cols)
	}
}

// TestVersion1FileCompat: a file in the version 1 layout opens, scans
// to the rows written, and reports its distinct counts unknown.
func TestVersion1FileCompat(t *testing.T) {
	rows := mixedRows(700)
	path := filepath.Join(t.TempDir(), "v1.useg")
	writeV1(t, path, rows, 5, 64)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:len(fileMagicV1)]) != fileMagicV1 {
		t.Fatalf("test writer produced magic %q", buf[:len(fileMagicV1)])
	}
	h, err := OpenPart(path)
	if err != nil {
		t.Fatalf("OpenPart(v1): %v", err)
	}
	defer h.Close()
	if h.meta.NDV != nil {
		t.Fatalf("v1 file reports NDV %v", h.meta.NDV)
	}
	got, err := srcOf(h).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("loaded %d rows, wrote %d", len(got), len(rows))
	}
	for i := range rows {
		if !urowsEqual(got[i], rows[i]) {
			t.Fatalf("row %d: got %+v, want %+v", i, got[i], rows[i])
		}
	}
	plan := scanOf(srcOf(h), 5)
	st := plan.LeafStats()
	if st.Rows != float64(len(rows)) || len(st.Cols) != 0 {
		t.Fatalf("v1 leaf stats = %+v, want %d rows and no columns", st, len(rows))
	}
	it, err := plan.BuildIter(engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rel, err := engine.Drain(it); err != nil || rel.Len() != len(rows) {
		t.Fatalf("scan of v1 file: %d rows, err %v", rel.Len(), err)
	}
}

// TestFooterNDVCorruption: a version 2 footer whose distinct counts
// exceed the row count, stop short, or are followed by extra bytes
// fails to open with ErrCorrupt.
func TestFooterNDVCorruption(t *testing.T) {
	rows := mixedRows(300)
	buf, err := os.ReadFile(writeTemp(t, rows, 5, 64))
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewPartHandle(bytes.NewReader(buf), int64(len(buf)))
	if err != nil {
		t.Fatal(err)
	}
	_, footer := splitFile(buf)
	with := func(edit func(m *fileMeta)) []byte {
		m := *h.meta
		m.NDV = append([]int(nil), h.meta.NDV...)
		edit(&m)
		return appendFooter(nil, &m)
	}
	cases := map[string][]byte{
		"ndv above rows":      withFooter(buf, fileMagic, with(func(m *fileMeta) { m.NDV[2] = m.Rows + 1 })),
		"tid ndv above rows":  withFooter(buf, fileMagic, with(func(m *fileMeta) { m.NDV[0] = m.Rows + 1 })),
		"short ndv block":     withFooter(buf, fileMagic, with(func(m *fileMeta) { m.NDV = m.NDV[:len(m.NDV)-1] })),
		"no ndv block":        withFooter(buf, fileMagic, with(func(m *fileMeta) { m.NDV = nil })),
		"extra bytes":         withFooter(buf, fileMagic, append(append([]byte(nil), footer...), 0)),
		"v1 magic, v2 footer": withFooter(buf, fileMagicV1, footer),
	}
	for name, data := range cases {
		if _, err := NewPartHandle(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// The splice itself is sound: the unedited footer reopens.
	if data := withFooter(buf, fileMagic, footer); !bytes.Equal(data, buf) {
		t.Fatal("withFooter does not reproduce the original file")
	}
}

// FuzzOpenPart feeds arbitrary bytes to the partition-file decoder
// (OpenPart minus the os.Open): it must never panic, and every error —
// from the footer or from decoding any segment it lists — must be
// ErrCorrupt.
func FuzzOpenPart(f *testing.F) {
	// Small seeds keep the minimization of new inputs short.
	rows := mixedRows(10)
	dir := f.TempDir()
	v2 := filepath.Join(dir, "v2.useg")
	if _, err := WritePartition(v2, rows, 5, 4); err != nil {
		f.Fatal(err)
	}
	v1 := filepath.Join(dir, "v1.useg")
	writeV1(f, v1, rows, 5, 4)
	for _, path := range []string{v1, v2} {
		buf, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		for _, cut := range []int{1, len(fileMagic), len(buf) / 2, len(buf) - tailLen - 1, len(buf) - 1} {
			f.Add(buf[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := NewPartHandle(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open: non-corrupt error %v", err)
			}
			return
		}
		if ndv := h.meta.NDV; ndv != nil && len(ndv) != 1+len(h.meta.Kinds) {
			t.Fatalf("%d distinct counts for %d attributes", len(ndv), len(h.meta.Kinds))
		}
		if _, err := srcOf(h).Load(); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("load: non-corrupt error %v", err)
		}
	})
}
