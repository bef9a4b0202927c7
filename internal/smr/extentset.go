package smr

import "sort"

// extentSet is an ordered list of disjoint, non-adjacent extents.
// Adjacent extents are merged on insert so the set stays compact even
// when a long stream is written in many small appends.
type extentSet []Extent

// search returns the index of the first extent with End > off.
func (s extentSet) search(off int64) int {
	return sort.Search(len(s), func(i int) bool { return s[i].End() > off })
}

// intersect reports whether e overlaps any extent in the set.
func (s extentSet) intersect(e Extent) (Extent, bool) {
	if e.Len <= 0 {
		return Extent{}, false
	}
	i := s.search(e.Off)
	if i < len(s) && s[i].Off < e.End() {
		return s[i], true
	}
	return Extent{}, false
}

// insert adds e, merging with overlapping or adjacent extents.
func (s *extentSet) insert(e Extent) {
	if e.Len <= 0 {
		return
	}
	set := *s
	// Find the run [i, j) of extents that overlap or touch e.
	i := sort.Search(len(set), func(k int) bool { return set[k].End() >= e.Off })
	j := i
	for j < len(set) && set[j].Off <= e.End() {
		j++
	}
	if i < j {
		if set[i].Off < e.Off {
			e.Len += e.Off - set[i].Off
			e.Off = set[i].Off
		}
		if end := set[j-1].End(); end > e.End() {
			e.Len = end - e.Off
		}
	}
	// Splice e over set[i:j] in place.
	if i == j {
		set = append(set, Extent{})
		copy(set[i+1:], set[i:])
	} else {
		set = append(set[:i+1], set[j:]...)
	}
	set[i] = e
	*s = set
}

// remove subtracts e from the set, splitting extents as needed.
func (s *extentSet) remove(e Extent) {
	if e.Len <= 0 {
		return
	}
	set := *s
	i := s.search(e.Off)
	var out extentSet
	out = append(out, set[:i]...)
	for ; i < len(set) && set[i].Off < e.End(); i++ {
		cur := set[i]
		if cur.Off < e.Off {
			out = append(out, Extent{Off: cur.Off, Len: e.Off - cur.Off})
		}
		if cur.End() > e.End() {
			out = append(out, Extent{Off: e.End(), Len: cur.End() - e.End()})
		}
	}
	out = append(out, set[i:]...)
	*s = out
}

// wellFormed reports whether the set upholds its structural
// invariant: positive-length extents, strictly ordered, disjoint and
// non-adjacent (adjacent runs must have been merged on insert). Used
// by the sealdb_invariants build of the raw drive.
func (s extentSet) wellFormed() bool {
	for i, e := range s {
		if e.Len <= 0 {
			return false
		}
		if i > 0 && s[i-1].End() >= e.Off {
			return false
		}
	}
	return true
}

// total returns the summed length of all extents.
func (s extentSet) total() int64 {
	var t int64
	for _, e := range s {
		t += e.Len
	}
	return t
}
