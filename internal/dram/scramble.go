package dram

// Scrambler implements the vendor-internal, per-chip mapping from system
// addresses to physical cell locations (paper §2, Fig. 2a). Two rows (or
// columns) that are adjacent in system address space are generally not
// physically adjacent in the cell array. The mapping is a deterministic
// bijection derived from the chip seed; it is intentionally NOT exposed
// through the system-facing Module API — only the faults package, which
// plays the role of silicon, consults it.
//
// The translation scheme itself is pluggable (AddressMapping): the
// default is the original Feistel-style row network with an XOR/rotate
// column swizzle, and DRAMDig-style vendor alternatives are registered
// in addrmap.go. The Scrambler layers the manufacturing-time faulty
// column remap (Fig. 2b) on top of whichever mapping is installed.
type Scrambler struct {
	geom    Geometry
	mapping AddressMapping
	remap   []int // system column -> physical column (after remapping)
}

// NewScrambler builds the default vendor mapping for a chip. faultyCols
// lists manufacturing-time faulty physical columns that are remapped to
// the redundant region at the right edge of the array (Fig. 2b); at most
// geom.RedundantCols entries are honoured, extras are ignored (a real
// vendor would discard such a chip).
func NewScrambler(geom Geometry, seed uint64, faultyCols []int) *Scrambler {
	return NewScramblerWithMapping(geom, faultyCols, newFeistelMapping(geom, seed))
}

// NewMappedScrambler builds a scrambler using the named vendor mapping
// ("" or "default" selects the scheme NewScrambler uses). It fails only
// on an unknown mapping name.
func NewMappedScrambler(geom Geometry, seed uint64, faultyCols []int, mapping string) (*Scrambler, error) {
	m, err := NewMapping(mapping, geom, seed)
	if err != nil {
		return nil, err
	}
	return NewScramblerWithMapping(geom, faultyCols, m), nil
}

// NewScramblerWithMapping builds a scrambler over an explicit address
// mapping, layering the faulty-column remap on the mapping's BaseCol.
func NewScramblerWithMapping(geom Geometry, faultyCols []int, m AddressMapping) *Scrambler {
	s := &Scrambler{
		geom:    geom,
		mapping: m,
	}
	// Base column mapping, from the installed scheme.
	s.remap = make([]int, geom.ColsPerRow)
	for c := range s.remap {
		s.remap[c] = m.BaseCol(c)
	}
	// Column remapping: redirect system columns whose base physical
	// column is faulty into the redundant region.
	next := geom.ColsPerRow // first redundant physical column
	faulty := make(map[int]bool, len(faultyCols))
	for _, f := range faultyCols {
		if f >= 0 && f < geom.ColsPerRow {
			faulty[f] = true
		}
	}
	for c := range s.remap {
		if faulty[s.remap[c]] && next < geom.PhysCols() {
			s.remap[c] = next
			next++
		}
	}
	return s
}

// splitmix is the SplitMix64 mixing function, used to derive per-chip
// mapping constants from the seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// PhysRow maps a system row index (within a bank) to its physical row.
func (s *Scrambler) PhysRow(bank, row int) int {
	return s.mapping.PhysRow(bank, row)
}

// PhysCol maps a system column to its physical column, honouring the
// manufacturing-time column remapping.
func (s *Scrambler) PhysCol(col int) int {
	return s.remap[col]
}
