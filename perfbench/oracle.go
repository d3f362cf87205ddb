package main

import (
	"fmt"
	"math"
	"slices"

	"unn"
)

// tol is the oracle tolerance for π and E[d] (relative to the distance
// for E[d] values above 1).
const tol = 1e-12

// oracle answers every query kind by brute force over a dataset, with
// code paths independent of the engine's: unn.NonzeroNN (Lemma 2.1),
// unn.ExactProbabilities (Eq. (2)) and a direct expected-distance sum.
type oracle struct {
	pts []*unn.Discrete
	unc []unn.Uncertain
}

func newOracle(pts []*unn.Discrete) *oracle {
	return &oracle{pts: pts, unc: unn.FromDiscrete(pts)}
}

// check returns an error describing how a differs from the exact answer
// of kind k at q, or nil.
func (o *oracle) check(k opKind, q unn.Point, a answer) error {
	switch k {
	case opNonzero:
		if want := unn.NonzeroNN(o.unc, q); !slices.Equal(a.nonzero, want) {
			return fmt.Errorf("NN≠0%v = %v, want %v", q, a.nonzero, want)
		}
	case opProbs:
		return checkProbs(a.probs, o.probs(q), q)
	case opExpected:
		best, bestI := math.Inf(1), -1
		for i := range o.pts {
			if e := o.expected(i, q); e < best {
				best, bestI = e, i
			}
		}
		slack := tol * max(1, best)
		if a.exp.I < 0 || a.exp.I >= len(o.pts) || math.Abs(a.exp.Dist-best) > slack ||
			math.Abs(o.expected(a.exp.I, q)-best) > slack {
			return fmt.Errorf("E[d]%v = (%d, %v), want (%d, %v)", q, a.exp.I, a.exp.Dist, bestI, best)
		}
	case opTopK:
		return checkTopK(a.probs, o.probs(q), q)
	}
	return nil
}

// probs returns the exact nonzero π_i(q) by index. Only NN≠0(q) can have
// π_i > 0, and a location farther than min_j Δ_j(q) contributes nothing,
// so Eq. (2) over the NN≠0 set alone gives the exact values.
func (o *oracle) probs(q unn.Point) map[int]float64 {
	cand := unn.NonzeroNN(o.unc, q)
	sub := make([]*unn.Discrete, len(cand))
	for j, i := range cand {
		sub[j] = o.pts[i]
	}
	exact := make(map[int]float64, len(cand))
	for j, p := range unn.ExactProbabilities(sub, q) {
		if p > 0 {
			exact[cand[j]] = p
		}
	}
	return exact
}

// expected is E d(q, P_i).
func (o *oracle) expected(i int, q unn.Point) float64 {
	p := o.pts[i]
	e := 0.0
	for a, l := range p.Locs {
		e += p.W[a] * math.Hypot(q.X-l.X, q.Y-l.Y)
	}
	return e
}

// checkProbs compares π as sets: every reported entry within tol of the
// exact value, and every exact value above tol reported.
func checkProbs(got []unn.Prob, exact map[int]float64, q unn.Point) error {
	seen := make(map[int]bool, len(got))
	for _, p := range got {
		if math.Abs(p.P-exact[p.I]) > tol {
			return fmt.Errorf("π%v: entry %v is off the exact value", q, p)
		}
		seen[p.I] = true
	}
	for i, e := range exact {
		if e > tol && !seen[i] {
			return fmt.Errorf("π%v: point %d (π=%v) missing", q, i, e)
		}
	}
	return nil
}

// checkTopK checks that the ranking follows from the exact π: at most
// topK entries, each within tol of its exact π, in non-increasing order,
// and no point left out whose exact π beats the last entry by more than
// tol (or, for a short list, any point with π above tol).
func checkTopK(got []unn.Prob, exact map[int]float64, q unn.Point) error {
	if len(got) > topK {
		return fmt.Errorf("top-k%v: %d entries", q, len(got))
	}
	in := make(map[int]bool, len(got))
	for j, p := range got {
		if math.Abs(p.P-exact[p.I]) > tol {
			return fmt.Errorf("top-k%v: entry %v is off the exact value", q, p)
		}
		if j > 0 && p.P > got[j-1].P+tol {
			return fmt.Errorf("top-k%v: entry %d out of order", q, j)
		}
		in[p.I] = true
	}
	floor := tol
	if len(got) == topK {
		floor = got[len(got)-1].P + tol
	}
	for i, e := range exact {
		if e > floor && !in[i] {
			return fmt.Errorf("top-k%v: point %d (π=%v) left out", q, i, e)
		}
	}
	return nil
}
