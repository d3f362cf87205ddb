// The cost model behind the query planner: per-backend estimators of
// build time and per-kind query time, seeded from the paper's own
// asymptotics (DefaultCalibration) and optionally calibrated to a
// machine from a persisted BENCH_engine.json table written by
// `unnbench -json`. Neither source reads a clock, so a plan depends only
// on the dataset, the workload and the table.
//
// Every estimate is coefficient × term(n): the term is the theorem's
// growth law (e.g. the Theorem 3.1/3.2 two-stage structures answer NN≠0
// in O(log n + k) while the Lemma 2.1 oracle pays O(n) per query; the
// Theorem 4.2 V_Pr diagram is exact but its construction grows so fast
// that only toy instances afford it), and the coefficient is the
// machine-specific constant the calibration recovers. The planner
// (planner.go) only ever compares estimates, so the coefficients need to
// be mutually consistent, not individually precise.
package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// CostOp names one estimated operation of a backend.
type CostOp uint8

const (
	// OpBuild is the one-time construction cost.
	OpBuild CostOp = iota
	// OpQueryNonzero is one NN≠0 query.
	OpQueryNonzero
	// OpQueryProbs is one quantification query.
	OpQueryProbs
	// OpQueryExpected is one expected-distance query.
	OpQueryExpected
	// OpQueryTopK is one top-k most-likely-NN query.
	OpQueryTopK
)

// String renders the op.
func (op CostOp) String() string {
	switch op {
	case OpBuild:
		return "build"
	case OpQueryNonzero:
		return "nonzero"
	case OpQueryProbs:
		return "probs"
	case OpQueryExpected:
		return "expected"
	case OpQueryTopK:
		return "topk"
	}
	return "unknown"
}

// queryOp maps a capability bit to its query CostOp (from the registry).
func queryOp(kind Capability) CostOp {
	if s := kindByCap(kind); s != nil {
		return s.op
	}
	return OpQueryExpected
}

// CostKey indexes one calibrated coefficient.
type CostKey struct {
	Backend Backend
	Op      CostOp
}

// Calibration maps (backend, op) to the nanosecond coefficient that
// multiplies the asymptotic term. Missing entries fall back to the
// seeded defaults.
type Calibration map[CostKey]float64

// term returns the asymptotic growth term of op for backend b at
// instance size n — the paper's complexity separations, flattened to the
// two-dimensional setting the library implements. lg is log₂(n+2) so
// degenerate sizes stay positive.
func term(b Backend, op CostOp, n int) float64 {
	fn := float64(n)
	lg := math.Log2(fn + 2)
	if op == OpBuild {
		switch b {
		case BackendBrute:
			return fn // store the input
		case BackendDiagram:
			return fn * fn * lg // arrangement + slab point location (§2)
		case BackendVPr:
			return fn * fn * fn * fn // Thm 4.2: complexity explodes; toy n only
		case BackendMonteCarlo:
			return fn // s instantiations of n points (s fixed by BuildOptions)
		default:
			return fn * lg // the near-linear structures (Thm 3.1/3.2, spiral, expected)
		}
	}
	switch b {
	case BackendBrute:
		switch op {
		case OpQueryNonzero, OpQueryExpected:
			return fn // Lemma 2.1 oracle / linear E[d] scan
		default:
			return fn * fn // Eq. (2) sweep: N log N + N·n
		}
	case BackendMonteCarlo:
		return lg // s point-location rounds (s in the coefficient)
	default:
		return lg // point location / two-stage / spiral prefix: O(log n + k)
	}
}

// DefaultCalibration returns the seeded coefficients (nanoseconds per
// term unit): rough constants measured once on a commodity core, good
// enough to rank backends when no table is given.
func DefaultCalibration() Calibration {
	c := Calibration{}
	seed := func(b Backend, op CostOp, ns float64) { c[CostKey{b, op}] = ns }
	for _, b := range Backends() {
		seed(b, OpBuild, 500)
		seed(b, OpQueryNonzero, 400)
		seed(b, OpQueryProbs, 700)
		seed(b, OpQueryExpected, 400)
		// Top-k derives from the π sweep plus an O(n log k) selection, so
		// its seeds track the probs seeds.
		seed(b, OpQueryTopK, 700)
	}
	seed(BackendBrute, OpBuild, 5)
	// The brute query seeds reflect the flat SoA kernels (internal/kernel):
	// the fused δ/Δ scan halves the per-row distance evaluations of the
	// old AoS double pass, so the per-row nanoseconds dropped ≈2×
	// (measured 21.6µs per NN≠0 query at n=1000, k=3 locations).
	seed(BackendBrute, OpQueryNonzero, 12)
	seed(BackendBrute, OpQueryProbs, 12)
	seed(BackendBrute, OpQueryExpected, 15)
	seed(BackendBrute, OpQueryTopK, 12)
	seed(BackendDiagram, OpBuild, 60)
	seed(BackendVPr, OpBuild, 800)
	seed(BackendMonteCarlo, OpBuild, 3000) // × s instantiations
	seed(BackendMonteCarlo, OpQueryProbs, 2500)
	seed(BackendMonteCarlo, OpQueryTopK, 2500)
	seed(BackendSpiral, OpQueryProbs, 3000)
	seed(BackendSpiral, OpQueryTopK, 3000)
	return c
}

// CostModel estimates build and query costs. The zero value is unusable;
// construct with NewCostModel.
type CostModel struct {
	coef Calibration
}

// NewCostModel returns a model over the given calibration; entries
// missing from cal fall back to DefaultCalibration.
func NewCostModel(cal Calibration) *CostModel {
	coef := DefaultCalibration()
	for k, v := range cal {
		if v > 0 {
			coef[k] = v
		}
	}
	return &CostModel{coef: coef}
}

// Coefficients returns a copy of the model's calibration table — the
// serialization hook for snapshots, which persist the fitted
// coefficients so a restored engine plans (and prices insert-buffer
// flushes) identically without the original table.
func (m *CostModel) Coefficients() Calibration {
	out := make(Calibration, len(m.coef))
	for k, v := range m.coef {
		out[k] = v
	}
	return out
}

// BuildCost estimates the construction cost (ns) of backend b at size n.
func (m *CostModel) BuildCost(b Backend, n int) float64 {
	return m.coef[CostKey{b, OpBuild}] * term(b, OpBuild, n)
}

// QueryCost estimates one query of the given kind (ns) on backend b at
// size n.
func (m *CostModel) QueryCost(b Backend, kind Capability, n int) float64 {
	op := queryOp(kind)
	return m.coef[CostKey{b, op}] * term(b, op, n)
}

// Observe folds a measured per-op latency back into the model — the
// feedback path from the engine's per-query-kind latency counters
// (Engine.Stats) to the planner. The coefficient moves by an
// equal-weight blend of its current value and the observation, so a
// drifting workload recalibrates without a single outlier rewriting the
// table.
func (m *CostModel) Observe(b Backend, op CostOp, n int, measuredNs float64) {
	t := term(b, op, n)
	if t <= 0 || measuredNs <= 0 {
		return
	}
	k := CostKey{b, op}
	obs := measuredNs / t
	if cur, ok := m.coef[k]; ok && cur > 0 {
		m.coef[k] = (cur + obs) / 2
		return
	}
	m.coef[k] = obs
}

// datasetCaps returns the query kinds backend b can answer for a dataset
// of this shape, mirroring the adapters' Build preconditions and
// dataset-dependent Capabilities — shared by the planner's candidacy
// test, Auto's rule plan, and the sharded capability clamp.
func datasetCaps(b Backend, ds *Dataset) Capability {
	switch b {
	case BackendBrute:
		c := Capability(0)
		if len(ds.Points) > 0 {
			c |= CapNonzero
		}
		if ds.Discrete != nil {
			c |= CapProbs | CapExpected | CapTopK
		}
		return c
	case BackendDiagram:
		if ds.Disks != nil || ds.Discrete != nil {
			return CapNonzero
		}
	case BackendTwoStageDisks:
		if ds.Disks != nil {
			return CapNonzero
		}
	case BackendTwoStageDiscrete:
		if ds.Discrete != nil {
			return CapNonzero
		}
	case BackendVPr, BackendSpiral:
		if ds.Discrete != nil {
			return CapProbs | CapTopK
		}
	case BackendMonteCarlo:
		if len(ds.Points) > 0 {
			return CapProbs | CapTopK
		}
	case BackendExpected:
		if ds.Discrete != nil {
			return CapExpected
		}
	case BackendTwoStageLinf, BackendTwoStageL1:
		if ds.Squares != nil {
			return CapNonzero
		}
	}
	return 0
}

// benchRecord is the subset of the unnbench -json schema the calibration
// loader needs; the field names are the stable contract of
// BENCH_engine.json.
type benchRecord struct {
	Exp       string  `json:"exp"`
	Backend   string  `json:"backend"`
	N         int     `json:"n"`
	BuildNs   int64   `json:"build_ns"`
	QueryNsOp float64 `json:"query_ns_op"`
}

// CalibrationFromJSON fits a calibration table from the raw bytes of a
// BENCH_engine.json artifact: every E16 row contributes its backend's
// build coefficient, and its single-query latency calibrates the kind
// that sweep measures (the backend's first capability, mirroring the
// E16 driver: NN≠0 when supported, else π, else E[d]). Rows of other
// sweeps are ignored. Multiple rows per backend average their fits.
func CalibrationFromJSON(data []byte) (Calibration, error) {
	var recs []benchRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("engine: calibration table: %w", err)
	}
	sums := map[CostKey]float64{}
	counts := map[CostKey]int{}
	add := func(k CostKey, coef float64) {
		sums[k] += coef
		counts[k]++
	}
	for _, r := range recs {
		if r.Exp != "E16" || r.N <= 0 {
			continue
		}
		b := Backend(r.Backend)
		found := false
		for _, known := range Backends() {
			if b == known {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		if r.BuildNs > 0 {
			if t := term(b, OpBuild, r.N); t > 0 {
				add(CostKey{b, OpBuild}, float64(r.BuildNs)/t)
			}
		}
		if r.QueryNsOp > 0 {
			op := e16Op(b)
			if t := term(b, op, r.N); t > 0 {
				add(CostKey{b, op}, r.QueryNsOp/t)
			}
		}
	}
	cal := Calibration{}
	for k, s := range sums {
		cal[k] = s / float64(counts[k])
	}
	if len(cal) == 0 {
		// A table without a single usable E16 row would silently hand the
		// planner the seeded defaults while the caller believes it supplied
		// measurements; callers that want defaults can just omit the table.
		return nil, fmt.Errorf("engine: calibration table: no usable E16 records")
	}
	return cal, nil
}

// e16Op is the query kind the E16 sweep times for each backend: its
// first capability in Nonzero → Probs → Expected order.
func e16Op(b Backend) CostOp {
	switch b {
	case BackendVPr, BackendMonteCarlo, BackendSpiral:
		return OpQueryProbs
	case BackendExpected:
		return OpQueryExpected
	default:
		return OpQueryNonzero
	}
}

// LoadCalibration reads a BENCH_engine.json file into a calibration
// table (see CalibrationFromJSON).
func LoadCalibration(path string) (Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return CalibrationFromJSON(data)
}

// Observer turns cumulative per-kind latency counters into delta
// windows: each Window call returns only the samples that arrived since
// the previous call and advances the mark. The engine's counters are
// monotone, so folding the same snapshot twice yields an empty window —
// the fix for the old one-shot ObserveInto, which re-blended the full
// cumulative means into the cost model on every call. The zero value is
// ready to use (the first window is everything recorded so far).
type Observer struct {
	last [numKinds]KindStats
}

// Window diffs cum (a cumulative per-kind snapshot, e.g. Stats.Kinds)
// against the previous call and advances. A counter that moved
// backwards (a fresh engine reusing the observer) restarts that kind's
// window from the new snapshot.
func (o *Observer) Window(cum [numKinds]KindStats) [numKinds]KindStats {
	var win [numKinds]KindStats
	for i := range cum {
		c, l := cum[i], o.last[i]
		if c.Count >= l.Count && c.TotalNs >= l.TotalNs {
			win[i] = KindStats{Count: c.Count - l.Count, TotalNs: c.TotalNs - l.TotalNs}
		}
		o.last[i] = c
	}
	return win
}

// DriftThresholds bounds how far the observed workload may wander from
// the installed plan before the adaptive loop fires a replan
// (adaptive.go). The zero value selects the defaults.
type DriftThresholds struct {
	// ErrFactor fires when a kind's observed mean latency is more than
	// this factor away — in either direction — from the reference mean
	// adopted when the plan was installed. Default 4.
	ErrFactor float64
	// MixDelta fires when the total-variation distance between the
	// observed per-kind query mix and the plan's assumed mix exceeds
	// this fraction (0..1). Default 0.35.
	MixDelta float64
}

func (t DriftThresholds) withDefaults() DriftThresholds {
	if t.ErrFactor <= 1 {
		t.ErrFactor = 4
	}
	if t.MixDelta <= 0 {
		t.MixDelta = 0.35
	}
	return t
}

// driftShareFloor is the observed share below which a kind's latency
// estimate error is ignored: a kind that barely runs contributes noise,
// not signal, and replanning for it cannot pay for the builds.
const driftShareFloor = 0.05

// detectDrift compares one observation window against the installed
// plan. mean[i] is the smoothed per-query latency of kind i (0 when the
// kind has no samples), mix[i] its observed share of the window,
// ref[i] the reference latency adopted at plan-install time, and
// planMix[i] the share the plan was optimized for. It returns a short
// human-readable reason when drift fired and "" otherwise; the no-drift
// path allocates nothing, so the adaptive tick can run it inline on the
// query path.
func detectDrift(mean, mix, ref, planMix [numKinds]float64, th DriftThresholds) string {
	th = th.withDefaults()
	tv := 0.0
	for i := range mix {
		tv += math.Abs(mix[i] - planMix[i])
	}
	tv /= 2
	if tv > th.MixDelta {
		return fmt.Sprintf("workload mix shifted (TV distance %.2f > %.2f)", tv, th.MixDelta)
	}
	for i := range mean {
		if mix[i] < driftShareFloor || mean[i] <= 0 || ref[i] <= 0 {
			continue
		}
		r := mean[i] / ref[i]
		if r > th.ErrFactor || r < 1/th.ErrFactor {
			return fmt.Sprintf("%s latency %.1fx its planned estimate", kindTable[i].name, r)
		}
	}
	return ""
}
