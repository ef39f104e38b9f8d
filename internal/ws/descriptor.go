package ws

import (
	"fmt"
	"sort"
	"strings"
)

// Assignment is one variable-to-value pair of a ws-descriptor.
type Assignment struct {
	Var Var
	Val Val
}

// Descriptor is a ws-descriptor: a partial valuation represented as a
// list of assignments sorted by variable id, with no contradictory
// duplicates. The empty descriptor denotes the entire world-set
// (shortcut for {⊤ -> 0}).
type Descriptor []Assignment

// NewDescriptor builds a normalized descriptor from assignments,
// sorting, deduplicating, and rejecting contradictions (same variable,
// different values).
func NewDescriptor(assigns ...Assignment) (Descriptor, error) {
	d := append(Descriptor(nil), assigns...)
	sort.Slice(d, func(i, j int) bool {
		if d[i].Var != d[j].Var {
			return d[i].Var < d[j].Var
		}
		return d[i].Val < d[j].Val
	})
	out := d[:0]
	for i, a := range d {
		if i > 0 && a.Var == d[i-1].Var {
			if a.Val != d[i-1].Val {
				return nil, fmt.Errorf("ws: contradictory descriptor: %s has two values", a.Var)
			}
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// MustDescriptor is NewDescriptor that panics; for tests and examples.
func MustDescriptor(assigns ...Assignment) Descriptor {
	d, err := NewDescriptor(assigns...)
	if err != nil {
		panic(err)
	}
	return d
}

// A is shorthand for building an Assignment.
func A(x Var, v Val) Assignment { return Assignment{Var: x, Val: v} }

// Lookup returns the value assigned to x, if any.
func (d Descriptor) Lookup(x Var) (Val, bool) {
	for _, a := range d {
		if a.Var == x {
			return a.Val, true
		}
		if a.Var > x {
			break
		}
	}
	return 0, false
}

// ConsistentWith reports whether two descriptors agree on their shared
// variables — the ψ condition of the paper's Figure 4.
func (d Descriptor) ConsistentWith(e Descriptor) bool {
	i, j := 0, 0
	for i < len(d) && j < len(e) {
		switch {
		case d[i].Var < e[j].Var:
			i++
		case d[i].Var > e[j].Var:
			j++
		default:
			if d[i].Val != e[j].Val {
				return false
			}
			i++
			j++
		}
	}
	return true
}

// Union merges two descriptors; ok is false if they are inconsistent.
func (d Descriptor) Union(e Descriptor) (Descriptor, bool) {
	out := make(Descriptor, 0, len(d)+len(e))
	i, j := 0, 0
	for i < len(d) && j < len(e) {
		switch {
		case d[i].Var < e[j].Var:
			out = append(out, d[i])
			i++
		case d[i].Var > e[j].Var:
			out = append(out, e[j])
			j++
		default:
			if d[i].Val != e[j].Val {
				return nil, false
			}
			out = append(out, d[i])
			i++
			j++
		}
	}
	out = append(out, d[i:]...)
	out = append(out, e[j:]...)
	return out, true
}

// ExtendedBy reports whether the total valuation f extends d (footnote 2
// of the paper: for all x on which d is defined, d(x) = f(x)).
func (d Descriptor) ExtendedBy(f Valuation) bool {
	for _, a := range d {
		v, ok := f[a.Var]
		if !ok || v != a.Val {
			return false
		}
	}
	return true
}

// Vars returns the variables mentioned by d.
func (d Descriptor) Vars() []Var {
	out := make([]Var, len(d))
	for i, a := range d {
		out[i] = a.Var
	}
	return out
}

// ValidIn reports whether every assignment's graph is a subset of W.
func (d Descriptor) ValidIn(w *WorldTable) bool {
	for _, a := range d {
		if !w.Has(a.Var, a.Val) {
			return false
		}
	}
	return true
}

// Prob returns the probability of the conjunction of d's assignments
// under w's product distribution (Section 7 extension).
func (d Descriptor) Prob(w *WorldTable) float64 {
	p := 1.0
	for _, a := range d {
		if a.Var == TrivialVar {
			continue
		}
		p *= w.Prob(a.Var, a.Val)
	}
	return p
}

// String renders the descriptor like "{x->1, y->2}".
func (d Descriptor) String() string {
	if len(d) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range d {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d->%d", a.Var, a.Val)
	}
	b.WriteByte('}')
	return b.String()
}

// StringNamed renders the descriptor with variable names from w.
func (d Descriptor) StringNamed(w *WorldTable) string {
	if len(d) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range d {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s->%d", w.Name(a.Var), a.Val)
	}
	b.WriteByte('}')
	return b.String()
}

// PaddedAt returns assignment k of d as if d were extended to exactly
// width assignments by repeating its first assignment, or the trivial
// assignment if d is empty — the paper's "pumping in already contained
// variable assignments" (Section 3, union translation). It reads d in
// place, so encoders can pad row by row without a padded copy.
// PaddedAt panics if len(d) > width; callers size the target first.
func (d Descriptor) PaddedAt(k, width int) Assignment {
	if len(d) > width {
		panic(fmt.Sprintf("ws: cannot pad descriptor of size %d to width %d", len(d), width))
	}
	switch {
	case k < len(d):
		return d[k]
	case len(d) > 0:
		return d[0]
	default:
		return Assignment{Var: TrivialVar, Val: 0}
	}
}

// String implements fmt.Stringer for variables ("c7"; "⊤" for the
// trivial variable).
func (x Var) String() string {
	if x == TrivialVar {
		return "⊤"
	}
	return fmt.Sprintf("c%d", int64(x))
}
