package model

import (
	"strconv"
	"strings"
)

// AttrSet is an immutable, canonically ordered set of attribute
// identifiers. Attribute-set partitions — the central object of REMO's
// partition augmentation — are slices of AttrSets.
//
// The zero value is the empty set and is ready to use.
type AttrSet struct {
	attrs []AttrID // sorted ascending, no duplicates
}

// NewAttrSet builds a set from the given attributes, deduplicating and
// sorting them.
func NewAttrSet(attrs ...AttrID) AttrSet {
	if len(attrs) == 0 {
		return AttrSet{}
	}
	cp := make([]AttrID, len(attrs))
	copy(cp, attrs)
	SortAttrs(cp)
	out := cp[:1]
	for _, a := range cp[1:] {
		if a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	return AttrSet{attrs: out}
}

// Len returns the number of attributes in the set.
func (s AttrSet) Len() int { return len(s.attrs) }

// Empty reports whether the set has no attributes.
func (s AttrSet) Empty() bool { return len(s.attrs) == 0 }

// Attrs returns the attributes in ascending order. The returned slice is a
// copy and may be modified by the caller.
func (s AttrSet) Attrs() []AttrID {
	cp := make([]AttrID, len(s.attrs))
	copy(cp, s.attrs)
	return cp
}

// Sorted returns the attributes in ascending order without copying, for
// merge walks on hot paths. The returned slice must not be modified.
func (s AttrSet) Sorted() []AttrID { return s.attrs }

// Contains reports whether a is in the set.
func (s AttrSet) Contains(a AttrID) bool {
	lo, hi := 0, len(s.attrs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s.attrs[mid] == a:
			return true
		case s.attrs[mid] < a:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// Union returns s ∪ t (the paper's merge operation A_i ⋈ A_j).
func (s AttrSet) Union(t AttrSet) AttrSet {
	merged := make([]AttrID, 0, len(s.attrs)+len(t.attrs))
	i, j := 0, 0
	for i < len(s.attrs) && j < len(t.attrs) {
		switch {
		case s.attrs[i] < t.attrs[j]:
			merged = append(merged, s.attrs[i])
			i++
		case s.attrs[i] > t.attrs[j]:
			merged = append(merged, t.attrs[j])
			j++
		default:
			merged = append(merged, s.attrs[i])
			i++
			j++
		}
	}
	merged = append(merged, s.attrs[i:]...)
	merged = append(merged, t.attrs[j:]...)
	return AttrSet{attrs: merged}
}

// Remove returns s \ {a} (the paper's split operation A_i ▷ a yields
// s.Remove(a) and the singleton {a}).
func (s AttrSet) Remove(a AttrID) AttrSet {
	if !s.Contains(a) {
		return s
	}
	out := make([]AttrID, 0, len(s.attrs)-1)
	for _, x := range s.attrs {
		if x != a {
			out = append(out, x)
		}
	}
	return AttrSet{attrs: out}
}

// Intersect returns s ∩ t.
func (s AttrSet) Intersect(t AttrSet) AttrSet {
	var out []AttrID
	i, j := 0, 0
	for i < len(s.attrs) && j < len(t.attrs) {
		switch {
		case s.attrs[i] < t.attrs[j]:
			i++
		case s.attrs[i] > t.attrs[j]:
			j++
		default:
			out = append(out, s.attrs[i])
			i++
			j++
		}
	}
	return AttrSet{attrs: out}
}

// IntersectsAny reports whether s and t share at least one attribute,
// without materializing the intersection.
func (s AttrSet) IntersectsAny(t AttrSet) bool {
	i, j := 0, 0
	for i < len(s.attrs) && j < len(t.attrs) {
		switch {
		case s.attrs[i] < t.attrs[j]:
			i++
		case s.attrs[i] > t.attrs[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Equal reports whether s and t contain exactly the same attributes.
func (s AttrSet) Equal(t AttrSet) bool {
	if len(s.attrs) != len(t.attrs) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != t.attrs[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for use in maps, such as tracking
// per-tree adjustment timestamps across adaptations.
func (s AttrSet) Key() string {
	if len(s.attrs) == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(len(s.attrs) * 4)
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(a)))
	}
	return b.String()
}

// String implements fmt.Stringer.
func (s AttrSet) String() string { return "{" + s.Key() + "}" }
