package dram

import (
	"fmt"
	"math/bits"
	"sort"
)

// AddressMapping is the vendor-internal translation from system (logical)
// addresses to physical cell locations — the part of the scrambling that
// differs between vendors and device generations. DRAMDig-style reverse
// engineering shows real devices range from near-linear mappings to
// multi-stage bit permutations; which mapping a chip uses decides which
// cells are physically adjacent, and therefore which cells couple.
//
// A mapping must be a bijection: PhysRow(bank, ·) over [0, RowsPerBank)
// and BaseCol over [0, ColsPerRow) must each be permutations. The
// Scrambler composes BaseCol with the manufacturing-time faulty-column
// remap (Fig. 2b), which is mapping-independent.
type AddressMapping interface {
	// PhysRow maps a system row index (within a bank) to its physical row.
	PhysRow(bank, row int) int
	// BaseCol maps a system column to its pre-remap physical column.
	BaseCol(col int) int
}

// DefaultMappingName names the Feistel-style scrambler NewScrambler has
// always used; NewMapping treats the empty string as an alias for it.
const DefaultMappingName = "default"

// mappingFactories registers the known vendor mapping schemes.
var mappingFactories = map[string]func(Geometry, uint64) AddressMapping{
	DefaultMappingName: func(g Geometry, seed uint64) AddressMapping { return newFeistelMapping(g, seed) },
	"gray":             func(g Geometry, seed uint64) AddressMapping { return newGrayMapping(g, seed) },
	"linear":           func(g Geometry, seed uint64) AddressMapping { return linearMapping{} },
	"mirror":           func(g Geometry, seed uint64) AddressMapping { return newMirrorMapping(g, seed) },
}

// MappingNames returns the registered vendor mapping names, sorted.
func MappingNames() []string {
	names := make([]string, 0, len(mappingFactories))
	for n := range mappingFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// KnownMapping reports whether name is a registered mapping (the empty
// string counts: it aliases the default).
func KnownMapping(name string) bool {
	if name == "" {
		return true
	}
	_, ok := mappingFactories[name]
	return ok
}

// NewMapping builds the named vendor mapping for a chip. The empty
// string selects the default Feistel-style scrambler.
func NewMapping(name string, geom Geometry, seed uint64) (AddressMapping, error) {
	if name == "" {
		name = DefaultMappingName
	}
	mk, ok := mappingFactories[name]
	if !ok {
		return nil, fmt.Errorf("dram: unknown address mapping %q (known: %v)", name, MappingNames())
	}
	return mk(geom, seed), nil
}

// rowBitsOf returns the width of the power-of-two row domain the bit
// permutations operate over ([0, 2^rowBits) covers RowsPerBank).
func rowBitsOf(geom Geometry) uint {
	b := uint(bits.Len(uint(geom.RowsPerBank - 1)))
	if b == 0 {
		b = 1
	}
	return b
}

// feistelMapping is the original per-chip scrambler: a small
// Feistel-style network over the row index bits (odd multiplier, XOR,
// rotation, cycle-walked into range) with an XOR/affine column swizzle.
type feistelMapping struct {
	geom    Geometry
	seed    uint64
	rowBits uint
	rowMask int
	colXor  int
}

func newFeistelMapping(geom Geometry, seed uint64) *feistelMapping {
	m := &feistelMapping{geom: geom, seed: seed}
	m.rowBits = rowBitsOf(geom)
	m.rowMask = (1 << m.rowBits) - 1
	m.colXor = int(splitmix(seed) % uint64(geom.ColsPerRow))
	return m
}

// PhysRow composes bijective steps over the power-of-two domain
// [0, 2^rowBits) — multiply by an odd constant, XOR, and bit rotation —
// and cycle-walks results that land outside [0, RowsPerBank) back into
// range, so the overall mapping is a bijection on the row space.
func (m *feistelMapping) PhysRow(bank, row int) int {
	r := row
	for {
		r = m.permuteRow(bank, r)
		if r < m.geom.RowsPerBank {
			return r
		}
	}
}

func (m *feistelMapping) permuteRow(bank, row int) int {
	k := splitmix(m.seed ^ uint64(bank)*0x2545f4914f6cdd1d)
	mul := (k | 1) & uint64(m.rowMask) // odd multiplier: bijective mod 2^rowBits
	xor := splitmix(k) & uint64(m.rowMask)
	rot := uint(splitmix(k^0x5bf0) % uint64(m.rowBits))

	r := uint64(row)
	r = (r * mul) & uint64(m.rowMask)
	r ^= xor
	// Rotate within rowBits.
	if rot > 0 {
		r = ((r << rot) | (r >> (m.rowBits - rot))) & uint64(m.rowMask)
	}
	return int(r)
}

// BaseCol is an XOR swizzle when ColsPerRow is a power of two (a
// bijection by construction); otherwise an affine map with a stride
// coprime to the column count.
func (m *feistelMapping) BaseCol(col int) int {
	n := m.geom.ColsPerRow
	if n&(n-1) == 0 {
		return col ^ (m.colXor & (n - 1))
	}
	stride := int(splitmix(m.seed^0xabcdef)%uint64(n-1)) + 1
	for gcd(stride, n) != 1 {
		stride++
	}
	return (col*stride + m.colXor) % n
}

// linearMapping is the identity: system order IS physical order. DRAMDig
// reports devices whose row mapping is exactly this straight-through
// routing; it is also the (broken) assumption naive system-level
// neighbour testing makes, so it doubles as the adversarial baseline.
type linearMapping struct{}

func (linearMapping) PhysRow(bank, row int) int { return row }
func (linearMapping) BaseCol(col int) int       { return col }

// grayMapping routes rows in reflected-Gray-code order with a per-bank
// XOR salt — the folded wordline layout where logically adjacent rows
// share all but one physical address bit. Gray coding and the XOR are
// both bijections on the power-of-two domain; out-of-range results
// cycle-walk back in. Columns pass through unpermuted.
type grayMapping struct {
	geom    Geometry
	rowBits uint
	rowMask int
	salt    []int // per-bank XOR constant
}

func newGrayMapping(geom Geometry, seed uint64) *grayMapping {
	m := &grayMapping{geom: geom}
	m.rowBits = rowBitsOf(geom)
	m.rowMask = (1 << m.rowBits) - 1
	m.salt = make([]int, geom.BanksPerChip)
	for b := range m.salt {
		m.salt[b] = int(splitmix(seed^uint64(b)*0x9e3779b97f4a7c15) & uint64(m.rowMask))
	}
	return m
}

func (m *grayMapping) PhysRow(bank, row int) int {
	r := row
	for {
		r = (r ^ (r >> 1) ^ m.salt[bank]) & m.rowMask
		if r < m.geom.RowsPerBank {
			return r
		}
	}
}

func (m *grayMapping) BaseCol(col int) int { return col }

// mirrorMapping bit-reverses the row address within the bank — the
// mirrored wordline routing of stacked array halves — and applies an
// affine column swizzle with its own seed-derived constants. Both steps
// are bijections; rows cycle-walk into range as usual.
type mirrorMapping struct {
	geom      Geometry
	rowBits   uint
	rowMask   int
	colStride int
	colOff    int
}

func newMirrorMapping(geom Geometry, seed uint64) *mirrorMapping {
	m := &mirrorMapping{geom: geom}
	m.rowBits = rowBitsOf(geom)
	m.rowMask = (1 << m.rowBits) - 1
	n := geom.ColsPerRow
	m.colOff = int(splitmix(seed^0x51ed270b) % uint64(n))
	m.colStride = int(splitmix(seed^0xc2b2ae35)%uint64(n-1)) + 1
	for gcd(m.colStride, n) != 1 {
		m.colStride++
	}
	return m
}

func (m *mirrorMapping) PhysRow(bank, row int) int {
	r := uint64(row)
	for {
		r = bits.Reverse64(r) >> (64 - m.rowBits)
		if int(r) < m.geom.RowsPerBank {
			return int(r)
		}
	}
}

func (m *mirrorMapping) BaseCol(col int) int {
	return (col*m.colStride + m.colOff) % m.geom.ColsPerRow
}
