// RowHammer mitigation policies. A Mitigation watches the activation
// stream of a bank and decides, per activation, how many extra
// neighbour-refresh operations the controller must issue. Two classic
// policies are modelled:
//
//   - PARA (probabilistic adjacent-row activation): on every activation,
//     refresh both physical neighbours with probability p. Stateless per
//     row; the escape probability of an H-activation hammer is (1-p)^H.
//   - PRAC-style counting: refresh both neighbours on every threshold-th
//     activation of a row. Deterministic; between two mitigations a
//     victim's neighbours absorb at most 2*(threshold-1) activations.
//
// Both express their cost in refresh operations, which the cost model
// prices like any per-row refresh: costmodel.Config.MitigationCost in
// time, Budget.RefreshNJ through costmodel.Config.Energy in energy.
package refresh

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Mitigation is a pluggable RowHammer mitigation policy. OnActivation is
// called once per row activation with the row's activation count within
// the current refresh window (including this activation) and returns the
// number of extra refresh operations to issue now (0 for none; 2 when
// both physical neighbours of the aggressor are refreshed).
//
// Implementations must be deterministic in their construction arguments:
// the same activation sequence yields the same operation sequence.
type Mitigation interface {
	// Name returns the policy's canonical spec string (e.g. "para:0.001").
	Name() string
	// OnActivation reports the extra refresh operations for this
	// activation of (bank, row); count is the row's activation count in
	// the current refresh window, starting at 1.
	OnActivation(bank, row int, count int64) int
}

// mitigationStream decorrelates PARA's coin flips from every other seeded
// stream in the simulator (the controller's traffic RNG in particular
// must not shift when mitigation is enabled).
const mitigationStream = 0x5e151f1ab1e0c0de

// PARA refreshes the aggressor's two neighbours with probability P on
// every activation.
type PARA struct {
	p   float64
	rng *rand.Rand
}

// NewPARA builds a PARA policy with the given per-activation refresh
// probability, deterministic in (p, seed).
func NewPARA(p float64, seed uint64) (*PARA, error) {
	if !(p > 0 && p <= 1) { // written so that NaN fails too
		return nil, fmt.Errorf("refresh: PARA probability %v outside (0,1]", p)
	}
	return &PARA{
		p:   p,
		rng: rand.New(rand.NewSource(int64(seed ^ mitigationStream))),
	}, nil
}

// Name implements Mitigation.
func (m *PARA) Name() string { return "para:" + strconv.FormatFloat(m.p, 'g', -1, 64) }

// P returns the per-activation refresh probability.
func (m *PARA) P() float64 { return m.p }

// OnActivation implements Mitigation: one biased coin flip per
// activation, 2 ops on heads.
func (m *PARA) OnActivation(bank, row int, count int64) int {
	if m.rng.Float64() < m.p {
		return 2
	}
	return 0
}

// PARAEscapeProb returns the probability that an H-activation hammer of
// one aggressor row completes without PARA ever refreshing its
// neighbours: (1-p)^H. This is the policy's analytic blast-radius bound.
func PARAEscapeProb(p float64, hammer int64) float64 {
	if p <= 0 || hammer <= 0 {
		return 1
	}
	if p >= 1 {
		return 0
	}
	return math.Exp(float64(hammer) * math.Log(1-p))
}

// PRAC counts per-row activations and refreshes the aggressor's two
// neighbours on every Threshold-th activation within a refresh window,
// modelling DDR5 per-row-activation-counting mitigations.
type PRAC struct {
	threshold int64
}

// NewPRAC builds a counting policy that mitigates every threshold-th
// activation of a row.
func NewPRAC(threshold int64) (*PRAC, error) {
	if threshold < 1 {
		return nil, fmt.Errorf("refresh: PRAC threshold must be at least 1, got %d", threshold)
	}
	return &PRAC{threshold: threshold}, nil
}

// Name implements Mitigation.
func (m *PRAC) Name() string { return "prac:" + strconv.FormatInt(m.threshold, 10) }

// Threshold returns the mitigation period in activations.
func (m *PRAC) Threshold() int64 { return m.threshold }

// OnActivation implements Mitigation.
func (m *PRAC) OnActivation(bank, row int, count int64) int {
	if count%m.threshold == 0 {
		return 2
	}
	return 0
}

// PRACCappedHammer returns the maximum effective hammer count a victim
// can accumulate under PRAC before its next neighbour refresh: a
// single-sided aggressor is mitigated after at most threshold
// activations, and with two aggressor neighbours the victim absorbs at
// most 2*(threshold-1)+1 activations between mitigations. An H-activation
// hammer therefore lands min(H, cap) effective activations.
func PRACCappedHammer(threshold, hammer int64) int64 {
	if threshold < 1 || hammer <= 0 {
		return 0
	}
	cap := 2*(threshold-1) + 1
	if hammer < cap {
		return hammer
	}
	return cap
}

// CanonicalMitigationSpec normalizes a mitigation spec string: trimmed
// and lower-cased, with "" and "none" both canonicalized to "" (no
// mitigation) and numeric parameters reformatted to their shortest form.
// It returns an error for specs ParseMitigation would reject.
func CanonicalMitigationSpec(spec string) (string, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	if s == "" || s == "none" {
		return "", nil
	}
	m, err := ParseMitigation(s, 0)
	if err != nil {
		return "", err
	}
	return m.Name(), nil
}

// ParseMitigation builds a Mitigation from its spec string:
//
//	""            no mitigation (returns nil)
//	"none"        no mitigation (returns nil)
//	"para:<p>"    PARA with per-activation probability p
//	"prac:<n>"    counting mitigation every n-th activation
//
// The seed feeds probabilistic policies (PARA); deterministic policies
// ignore it.
func ParseMitigation(spec string, seed uint64) (Mitigation, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	if s == "" || s == "none" {
		return nil, nil
	}
	kind, arg, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("refresh: mitigation spec %q is not \"none\", \"para:<p>\" or \"prac:<n>\"", spec)
	}
	switch kind {
	case "para":
		p, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return nil, fmt.Errorf("refresh: PARA probability %q: %v", arg, err)
		}
		return NewPARA(p, seed)
	case "prac":
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("refresh: PRAC threshold %q: %v", arg, err)
		}
		return NewPRAC(n)
	default:
		return nil, fmt.Errorf("refresh: unknown mitigation %q (want para or prac)", kind)
	}
}
