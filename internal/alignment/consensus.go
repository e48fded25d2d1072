package alignment

// Consensus returns the majority-vote consensus sequence of the alignment:
// per column, the most frequent residue wins; on a three-way tie between
// distinct residues the first sequence's residue wins; columns whose
// majority is a gap contribute nothing. The result is a plain residue
// string over the triple's alphabet.
func (a *Alignment) Consensus() string {
	out := make([]byte, 0, len(a.Moves))
	ra, rb, rc := a.Rows()
	for i := range a.Moves {
		if c := majorityByte(ra[i], rb[i], rc[i]); c != '-' {
			out = append(out, c)
		}
	}
	return string(out)
}

// majorityByte picks the most frequent of three symbols, preferring a
// concrete residue over '-' when each symbol appears once.
func majorityByte(a, b, c byte) byte {
	switch {
	case a == b || a == c:
		return a
	case b == c:
		return b
	}
	for _, x := range [3]byte{a, b, c} {
		if x != '-' {
			return x
		}
	}
	return '-'
}

// Conservation returns the per-column annotation line used by Format:
// '*' for three identical residues, ':' for exactly two, ' ' otherwise.
func (a *Alignment) Conservation() string { return a.Multi().ConservationString() }
