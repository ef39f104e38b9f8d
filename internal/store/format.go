package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"urel/internal/core"
	"urel/internal/engine"
)

// Segment file layout (all multi-byte integers are varints unless noted
// as fixed little-endian):
//
//	fileMagic
//	segment payloads, back to back (offsets/lengths in the footer)
//	footer: width, #attrs, attr kind bytes, #segments,
//	        per segment: offset, length, crc32 (fixed32), rows,
//	                     per attr: non-null count, [min value, max value]
//	tail (16 bytes, fixed): footer offset (fixed64) + tailMagic
//
// Each segment holds up to the writer's segment-row budget of rows,
// column-major: the padded descriptor (Var, Rng) columns, the tuple-id
// column, then one value column per attribute (null bitmap + payload).
const (
	fileMagic = "URSEGv1\n"
	tailMagic = "URSEGend"
	tailLen   = 8 + len(tailMagic)
)

// kindMixed marks a column whose non-null values do not share a single
// kind; its cells are stored as individually tagged values. A plain
// engine.KindNull column byte marks an all-null column with no payload
// beyond the bitmap.
const kindMixed byte = 0xFF

// ErrCorrupt reports a structurally invalid, truncated, or
// checksum-failing segment file.
var ErrCorrupt = errors.New("store: corrupt segment file")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// appendInt / appendUint append varints; fixed-width helpers are used
// where byte budgets must be predictable (checksums, the tail).
func appendInt(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }
func appendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendFixed32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendFixed64(b []byte, v uint64) []byte {
	var x [8]byte
	binary.LittleEndian.PutUint64(x[:], v)
	return append(b, x[:]...)
}

// cursor decodes a byte slice, turning every overrun into ErrCorrupt.
type cursor struct {
	b   []byte
	pos int
}

func (c *cursor) int() (int64, error) {
	v, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		return 0, corruptf("bad varint at offset %d", c.pos)
	}
	c.pos += n
	return v, nil
}

func (c *cursor) uint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, corruptf("bad uvarint at offset %d", c.pos)
	}
	c.pos += n
	return v, nil
}

// count decodes a uvarint bounded by max (guarding allocations against
// corrupt length fields).
func (c *cursor) count(max uint64) (int, error) {
	v, err := c.uint()
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, corruptf("count %d exceeds bound %d", v, max)
	}
	return int(v), nil
}

func (c *cursor) byte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, corruptf("truncated at offset %d", c.pos)
	}
	v := c.b[c.pos]
	c.pos++
	return v, nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.b) {
		return nil, corruptf("truncated at offset %d (need %d bytes)", c.pos, n)
	}
	v := c.b[c.pos : c.pos+n]
	c.pos += n
	return v, nil
}

func (c *cursor) fixed32() (uint32, error) {
	v, err := c.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(v), nil
}

func (c *cursor) fixed64() (uint64, error) {
	v, err := c.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(v), nil
}

// appendValue encodes a tagged scalar value.
func appendValue(b []byte, v engine.Value) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case engine.KindNull:
	case engine.KindInt, engine.KindBool:
		b = appendInt(b, v.I)
	case engine.KindFloat:
		b = appendFixed64(b, math.Float64bits(v.F))
	case engine.KindString:
		b = appendUint(b, uint64(len(v.S)))
		b = append(b, v.S...)
	}
	return b
}

func (c *cursor) value() (engine.Value, error) {
	k, err := c.byte()
	if err != nil {
		return engine.Null(), err
	}
	switch engine.Kind(k) {
	case engine.KindNull:
		return engine.Null(), nil
	case engine.KindInt:
		i, err := c.int()
		return engine.Int(i), err
	case engine.KindBool:
		i, err := c.int()
		return engine.Bool(i != 0), err
	case engine.KindFloat:
		bits, err := c.fixed64()
		return engine.Float(math.Float64frombits(bits)), err
	case engine.KindString:
		n, err := c.count(uint64(len(c.b)))
		if err != nil {
			return engine.Null(), err
		}
		s, err := c.bytes(n)
		if err != nil {
			return engine.Null(), err
		}
		return engine.Str(string(s)), nil
	default:
		return engine.Null(), corruptf("unknown value kind %d", k)
	}
}

// colStats holds the footer statistics of one value column in one
// segment. Min/Max are ordered by engine.Compare — the same total
// order predicate evaluation uses — so pruning against them is exact
// for every kind, and null rows (which never satisfy a comparison)
// are excluded via NonNull.
type colStats struct {
	NonNull  int
	Min, Max engine.Value
}

// segMeta locates and describes one segment.
type segMeta struct {
	Off   int64
	Len   int
	CRC   uint32
	Rows  int
	Stats []colStats
}

// fileMeta is the decoded footer of a partition file.
type fileMeta struct {
	Width int    // padded descriptor width
	Kinds []byte // engine.Kind per value attribute, or kindMixed
	Segs  []segMeta
	Rows  int // total row count
}

// deriveKinds infers each value column's storage kind over all rows:
// the shared kind of the non-null values, engine.KindNull if every
// value is null, kindMixed otherwise.
func deriveKinds(rows []core.URow, nattrs int) []byte {
	kinds := make([]byte, nattrs)
	for ci := 0; ci < nattrs; ci++ {
		k := byte(engine.KindNull)
		for _, r := range rows {
			v := r.Vals[ci]
			if v.IsNull() {
				continue
			}
			if k == byte(engine.KindNull) {
				k = byte(v.K)
			} else if k != byte(v.K) {
				k = kindMixed
				break
			}
		}
		kinds[ci] = k
	}
	return kinds
}

// encodeSegment encodes rows column-major and computes the per-column
// statistics destined for the footer.
func encodeSegment(rows []core.URow, width int, kinds []byte) ([]byte, []colStats) {
	n := len(rows)
	var b []byte
	// Descriptor columns, padded to width (Section 3's "pumping in
	// already contained variable assignments").
	for k := 0; k < width; k++ {
		for _, r := range rows {
			b = appendInt(b, int64(r.D.PaddedAt(k, width).Var))
		}
		for _, r := range rows {
			b = appendInt(b, int64(r.D.PaddedAt(k, width).Val))
		}
	}
	// Tuple-id column.
	for _, r := range rows {
		b = appendInt(b, r.TID)
	}
	// Value columns: null bitmap, then kind-specific payload.
	stats := make([]colStats, len(kinds))
	for ci, k := range kinds {
		bm := make([]byte, (n+7)/8)
		for i, r := range rows {
			if r.Vals[ci].IsNull() {
				bm[i/8] |= 1 << (i % 8)
			}
		}
		b = append(b, bm...)
		st := &stats[ci]
		for _, r := range rows {
			v := r.Vals[ci]
			if !v.IsNull() {
				if st.NonNull == 0 {
					st.Min, st.Max = v, v
				} else {
					if engine.Compare(v, st.Min) < 0 {
						st.Min = v
					}
					if engine.Compare(v, st.Max) > 0 {
						st.Max = v
					}
				}
				st.NonNull++
			}
			switch k {
			case byte(engine.KindNull):
			case byte(engine.KindInt), byte(engine.KindBool):
				b = appendInt(b, v.I)
			case byte(engine.KindFloat):
				b = appendFixed64(b, math.Float64bits(v.F))
			case byte(engine.KindString):
				b = appendUint(b, uint64(len(v.S)))
				b = append(b, v.S...)
			default: // kindMixed
				b = appendValue(b, v)
			}
		}
	}
	return b, stats
}

// segment is one decoded row group. Value columns decode straight into
// typed engine.ColVec vectors (null markers + typed payloads), so a
// columnar scan hands them to the engine with no per-cell work at all.
type segment struct {
	n    int
	dvar [][]int64 // [width][n]
	drng [][]int64
	tid  []int64
	cols []engine.ColVec // [nattr], each of n cells
}

// decodeSegment decodes a segment payload of n rows.
func decodeSegment(data []byte, n, width int, kinds []byte) (*segment, error) {
	c := &cursor{b: data}
	s := &segment{
		n:    n,
		dvar: make([][]int64, width),
		drng: make([][]int64, width),
		tid:  make([]int64, n),
		cols: make([]engine.ColVec, len(kinds)),
	}
	readInts := func() ([]int64, error) {
		out := make([]int64, n)
		for i := range out {
			v, err := c.int()
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var err error
	for k := 0; k < width; k++ {
		if s.dvar[k], err = readInts(); err != nil {
			return nil, err
		}
		if s.drng[k], err = readInts(); err != nil {
			return nil, err
		}
	}
	if s.tid, err = readInts(); err != nil {
		return nil, err
	}
	for ci, k := range kinds {
		bm, err := c.bytes((n + 7) / 8)
		if err != nil {
			return nil, err
		}
		nulls := make([]bool, n)
		anyNull := false
		for i := 0; i < n; i++ {
			if bm[i/8]&(1<<(i%8)) != 0 {
				nulls[i] = true
				anyNull = true
			}
		}
		if !anyNull {
			nulls = nil
		}
		switch k {
		case byte(engine.KindNull):
			// All-null column: no payload beyond the bitmap.
			all := make([]bool, n)
			for i := range all {
				all[i] = true
			}
			s.cols[ci] = engine.ColVec{Nulls: all}
		case byte(engine.KindInt), byte(engine.KindBool):
			xs := make([]int64, n)
			for i := 0; i < n; i++ {
				v, err := c.int()
				if err != nil {
					return nil, err
				}
				xs[i] = v
			}
			if k == byte(engine.KindBool) {
				s.cols[ci] = engine.BoolVec(xs, nulls)
			} else {
				s.cols[ci] = engine.IntVec(xs, nulls)
			}
		case byte(engine.KindFloat):
			xs := make([]float64, n)
			for i := 0; i < n; i++ {
				bits, err := c.fixed64()
				if err != nil {
					return nil, err
				}
				xs[i] = math.Float64frombits(bits)
			}
			s.cols[ci] = engine.FloatVec(xs, nulls)
		case byte(engine.KindString):
			xs := make([]string, n)
			for i := 0; i < n; i++ {
				ln, err := c.count(uint64(len(data)))
				if err != nil {
					return nil, err
				}
				sb, err := c.bytes(ln)
				if err != nil {
					return nil, err
				}
				xs[i] = string(sb)
			}
			s.cols[ci] = engine.StrVec(xs, nulls)
		case kindMixed:
			vals := make([]engine.Value, n)
			for i := 0; i < n; i++ {
				v, err := c.value()
				if err != nil {
					return nil, err
				}
				if nulls == nil || !nulls[i] {
					vals[i] = v
				}
			}
			s.cols[ci] = engine.GenericVec(vals)
		default:
			return nil, corruptf("unknown column kind %d", k)
		}
	}
	if c.pos != len(data) {
		return nil, corruptf("%d trailing bytes in segment", len(data)-c.pos)
	}
	return s, nil
}

// appendFooter encodes the file footer.
func appendFooter(b []byte, m *fileMeta) []byte {
	b = appendUint(b, uint64(m.Width))
	b = appendUint(b, uint64(len(m.Kinds)))
	b = append(b, m.Kinds...)
	b = appendUint(b, uint64(len(m.Segs)))
	for _, s := range m.Segs {
		b = appendUint(b, uint64(s.Off))
		b = appendUint(b, uint64(s.Len))
		b = appendFixed32(b, s.CRC)
		b = appendUint(b, uint64(s.Rows))
		for _, cs := range s.Stats {
			b = appendUint(b, uint64(cs.NonNull))
			if cs.NonNull > 0 {
				b = appendValue(b, cs.Min)
				b = appendValue(b, cs.Max)
			}
		}
	}
	return b
}

// decodeFooter decodes the footer region and sanity-checks segment
// bounds against the payload region [payloadStart, payloadEnd).
func decodeFooter(data []byte, payloadStart, payloadEnd int64) (*fileMeta, error) {
	c := &cursor{b: data}
	m := &fileMeta{}
	w, err := c.count(1 << 20)
	if err != nil {
		return nil, err
	}
	m.Width = w
	na, err := c.count(1 << 20)
	if err != nil {
		return nil, err
	}
	kb, err := c.bytes(na)
	if err != nil {
		return nil, err
	}
	m.Kinds = append([]byte(nil), kb...)
	ns, err := c.count(1 << 30)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ns; i++ {
		var s segMeta
		off, err := c.uint()
		if err != nil {
			return nil, err
		}
		s.Off = int64(off)
		if s.Len, err = c.count(1 << 31); err != nil {
			return nil, err
		}
		if s.CRC, err = c.fixed32(); err != nil {
			return nil, err
		}
		if s.Rows, err = c.count(1 << 31); err != nil {
			return nil, err
		}
		if s.Off < payloadStart || s.Off+int64(s.Len) > payloadEnd {
			return nil, corruptf("segment %d range [%d, %d) outside payload [%d, %d)",
				i, s.Off, s.Off+int64(s.Len), payloadStart, payloadEnd)
		}
		s.Stats = make([]colStats, na)
		for ci := range s.Stats {
			nn, err := c.count(1 << 31)
			if err != nil {
				return nil, err
			}
			s.Stats[ci].NonNull = nn
			if nn > 0 {
				if s.Stats[ci].Min, err = c.value(); err != nil {
					return nil, err
				}
				if s.Stats[ci].Max, err = c.value(); err != nil {
					return nil, err
				}
			}
		}
		m.Rows += s.Rows
		m.Segs = append(m.Segs, s)
	}
	if c.pos != len(data) {
		return nil, corruptf("%d trailing bytes in footer", len(data)-c.pos)
	}
	return m, nil
}
