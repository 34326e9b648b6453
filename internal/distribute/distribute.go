// Package distribute implements PIM-CapsNet's inter-vault workload
// distribution (paper §5.1): the multi-dimensional parallelism
// analysis of Table 2, the per-dimension models of largest per-vault
// workload E (Eqs. 7, 9, 11) and inter-vault data movement M
// (Eqs. 8, 10, 12), and the execution score S = 1/(αE + βM) that the
// intelligent workload distributor maximizes offline to pick the
// distribution dimension.
package distribute

import (
	"fmt"
	"math"

	"pimcapsnet/internal/hmc"
	"pimcapsnet/internal/workload"
)

// Dimension is a parallelization dimension of the routing procedure.
type Dimension int

// The three distribution dimensions (§5.1.1).
const (
	DimB Dimension = iota // batch
	DimL                  // low-level capsules
	DimH                  // high-level capsules
)

// Dimensions lists all three in display order.
var Dimensions = []Dimension{DimB, DimL, DimH}

// String implements fmt.Stringer.
func (d Dimension) String() string {
	switch d {
	case DimB:
		return "B"
	case DimL:
		return "L"
	case DimH:
		return "H"
	}
	return fmt.Sprintf("Dimension(%d)", int(d))
}

// ParallelizableDims reproduces Table 2: which dimensions each routing
// equation can be partitioned along.
func ParallelizableDims(eq workload.RPEquation) []Dimension {
	switch eq {
	case workload.EqPrediction:
		return []Dimension{DimB, DimL, DimH}
	case workload.EqWeightedSum:
		return []Dimension{DimB, DimH}
	case workload.EqSquash:
		return []Dimension{DimB, DimH}
	case workload.EqAgreement:
		return []Dimension{DimL, DimH}
	case workload.EqSoftmax:
		return []Dimension{DimL}
	}
	panic(fmt.Sprintf("distribute: unknown equation %v", eq))
}

// CanParallelize reports whether eq partitions along d (Table 2).
func CanParallelize(eq workload.RPEquation, d Dimension) bool {
	for _, x := range ParallelizableDims(eq) {
		if x == d {
			return true
		}
	}
	return false
}

// Params carries the Table 3 model parameters.
type Params struct {
	I      int // routing iterations
	NB     int // batch size
	NL, NH int // capsule counts
	CL, CH int // capsule dimensions
	NVault int // number of vaults
	// SizeVar is bytes per scalar variable, SizePkt the packet
	// head+tail overhead.
	SizeVar, SizePkt float64
}

// FromBenchmark builds Params for a Table 1 benchmark on the given
// cube.
func FromBenchmark(b workload.Benchmark, cfg hmc.Config) Params {
	return Params{
		I: b.Iters, NB: b.BatchSize, NL: b.NumL, NH: b.NumH,
		CL: b.DimL, CH: b.DimH, NVault: cfg.Vaults,
		SizeVar: workload.WordBytes, SizePkt: float64(cfg.PacketOverheadBytes),
	}
}

func ceilDiv(a, b int) float64 { return math.Ceil(float64(a) / float64(b)) }

// E returns the largest per-vault operation count under distribution
// on d: Eq. 7 (B), Eq. 9 (L) or Eq. 11 (H). The paper's simplified
// forms (NL ≫ 1) are used; see DESIGN.md for the garbled full Eq. 6.
func (p Params) E(d Dimension) float64 {
	i := float64(p.I)
	nb, nl, nh := float64(p.NB), float64(p.NL), float64(p.NH)
	cl, ch := float64(p.CL), float64(p.CH)
	switch d {
	case DimB:
		return ceilDiv(p.NB, p.NVault) * nl * nh * ((4*i-1)*ch + 2*cl*ch - i)
	case DimL:
		return nb * ceilDiv(p.NL, p.NVault) * nh * (2*i*(2*ch-1) + ch*(2*cl-1))
	case DimH:
		return nb * nl * ceilDiv(p.NH, p.NVault) * ch * (2*cl - 1 + 2*i)
	}
	panic(fmt.Sprintf("distribute: unknown dimension %v", d))
}

// M returns the inter-vault data movement in bytes under distribution
// on d: Eq. 8 (B), Eq. 10 (L) or Eq. 12 (H).
func (p Params) M(d Dimension) float64 {
	i := float64(p.I)
	nb, nl, nh := float64(p.NB), float64(p.NL), float64(p.NH)
	ch := float64(p.CH)
	v := float64(p.NVault)
	switch d {
	case DimB:
		// Pre-aggregated b_ij gathered, c_ij scattered (both L×H
		// scalar matrices) every iteration.
		per := nl * nh * (p.SizeVar + p.SizePkt)
		return i * ((v-1)*per + (v-1)*per)
	case DimL:
		// s_j^k all-reduced and v_j^k broadcast (CH-vectors per batch
		// element and H capsule) every iteration.
		sv := ch*p.SizeVar + p.SizePkt
		return i * (nb*(v-1)*nh*sv + nb*(v-1)*nh*sv)
	case DimH:
		// b_ij partial rows all-reduced, c_ij rows broadcast.
		return i * ((v-1)*nl*(p.SizeVar+p.SizePkt) + nl*(p.SizeVar+p.SizePkt))
	}
	panic(fmt.Sprintf("distribute: unknown dimension %v", d))
}

// Snippets returns how many independent workload snippets distribution
// on d produces (one per index along the dimension).
func (p Params) Snippets(d Dimension) int {
	switch d {
	case DimB:
		return p.NB
	case DimL:
		return p.NL
	case DimH:
		return p.NH
	}
	panic(fmt.Sprintf("distribute: unknown dimension %v", d))
}

// Scorer holds the device-dependent coefficients of the execution
// score S = 1/(αE + βM): α converts operations to seconds (HMC
// compute rate), β converts inter-vault bytes to seconds (crossbar
// port bandwidth).
type Scorer struct {
	Alpha, Beta float64
}

// NewScorer derives α and β from the cube configuration: a vault
// executes PEsPerVault operations per cycle, and inter-vault traffic
// drains through a vault port.
func NewScorer(cfg hmc.Config) Scorer {
	return Scorer{
		Alpha: 1 / (float64(cfg.PEsPerVault) * cfg.ClockHz),
		Beta:  1 / cfg.VaultBW(),
	}
}

// ScoreEM returns the execution score S = 1/(αE + βM) for an
// arbitrary largest-per-unit workload E and data movement M — Eq. 6's
// objective detached from the vault-specific E and M models, so other
// placement problems with the same structure can rank candidates with
// the identical scoring. internal/cluster's replica placement is the
// same objective with α = β = 1 — there only the ratio β·M/α matters,
// so it ranks by E + M directly (see DESIGN.md §8).
func (s Scorer) ScoreEM(e, m float64) float64 {
	return 1 / (s.Alpha*e + s.Beta*m)
}

// Score returns S for distribution of p on d.
func (s Scorer) Score(p Params, d Dimension) float64 {
	return s.ScoreEM(p.E(d), p.M(d))
}

// Choice records the distributor's decision for one dimension.
type Choice struct {
	Dim   Dimension
	Score float64
	E, M  float64
}

// Evaluate scores all three dimensions.
func (s Scorer) Evaluate(p Params) []Choice {
	out := make([]Choice, 0, len(Dimensions))
	for _, d := range Dimensions {
		out = append(out, Choice{Dim: d, Score: s.Score(p, d), E: p.E(d), M: p.M(d)})
	}
	return out
}

// Best returns the dimension with the highest execution score — the
// intelligent workload distributor's offline decision (§5.1.2).
func (s Scorer) Best(p Params) Choice {
	choices := s.Evaluate(p)
	best := choices[0]
	for _, c := range choices[1:] {
		if c.Score > best.Score {
			best = c
		}
	}
	return best
}
