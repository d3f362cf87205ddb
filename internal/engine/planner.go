// The cost-based query planner: given a dataset and an expected
// workload, pick the cheapest capable backend *per query kind* — a
// composite assignment rather than the old three-case rule. The paper's
// complexity separations drive the choice: the Theorem 3.1/3.2 two-stage
// structures answer NN≠0 in O(log n + k) where the Lemma 2.1 oracle pays
// O(n); the Theorem 4.7 spiral search quantifies in polylog time where
// the exact Eq. (2) sweep pays Õ(n²); the [AESZ12] centroid index
// answers E[d] in O(log n) where the brute scan pays O(n). The planner
// materializes that separation as a plannedIndex — one built instance
// per distinct chosen backend — and exposes the decision (with its cost
// estimates) through Plan.Explain.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"unn/internal/geom"
	"unn/internal/quantify"
)

// Workload is the expected query mix the planner optimizes for: relative
// weights per query kind (they need not sum to 1; only ratios matter).
// The zero value means "uniform over the kinds this dataset supports".
type Workload struct {
	Nonzero  float64
	Probs    float64
	Expected float64
	TopK     float64
}

func (w Workload) weight(kind Capability) float64 {
	switch kind {
	case CapNonzero:
		return w.Nonzero
	case CapProbs:
		return w.Probs
	case CapTopK:
		return w.TopK
	default:
		return w.Expected
	}
}

func (w Workload) isZero() bool {
	return w.Nonzero == 0 && w.Probs == 0 && w.Expected == 0 && w.TopK == 0
}

// PlannerOptions tunes the cost-based planner.
type PlannerOptions struct {
	// Mix is the expected workload; the zero value weighs every supported
	// kind equally.
	Mix Workload
	// Horizon is the number of queries the build cost amortizes over.
	// Default 4096: short-lived handles keep cheap builds, long-lived ones
	// buy the fast structures.
	Horizon float64
	// Calibration supplies measured coefficients (e.g. LoadCalibration of
	// a persisted BENCH_engine.json). When nil, a Build-time micro-probe
	// calibrates the candidates on a small sample; set NoProbe to skip
	// that and run on the seeded defaults.
	Calibration Calibration
	// NoProbe disables the Build-time micro-probe.
	NoProbe bool
	// RandomPenalty multiplies the estimated query cost of randomized
	// approximating backends (Monte Carlo) when a deterministic
	// alternative exists — the variance of an estimate is a cost too.
	// Default 2; 1 disables the penalty.
	RandomPenalty float64
}

func (o PlannerOptions) withDefaults() PlannerOptions {
	if o.Horizon <= 0 {
		o.Horizon = 4096
	}
	if o.RandomPenalty <= 0 {
		o.RandomPenalty = 2
	}
	return o
}

// Choice is the planner's decision for one query kind.
type Choice struct {
	Backend Backend
	// QueryNs is the estimated per-query cost at the dataset size.
	QueryNs float64
	// BuildNs is the estimated build cost of the backend (shared between
	// kinds assigned to the same backend).
	BuildNs float64
	// RunnerUp names another capable backend (empty when the choice was
	// forced) and its estimated per-query cost, for Explain — the winner
	// won on *total* cost over the horizon, so the runner-up's per-query
	// estimate may be lower when its build cost priced it out.
	RunnerUp   Backend
	RunnerUpNs float64
}

// Plan is a per-query-kind backend assignment with its cost estimates.
type Plan struct {
	N       int
	Mix     Workload
	Horizon float64
	// Choices maps each supported query kind to its decision; kinds no
	// backend can answer on this dataset are absent.
	Choices map[Capability]Choice
	// Probed reports whether a Build-time micro-probe calibrated the
	// model (vs a supplied table or the seeded defaults).
	Probed bool
}

// Capabilities returns the union of planned kinds.
func (p *Plan) Capabilities() Capability {
	var c Capability
	for kind := range p.Choices {
		c |= kind
	}
	return c
}

// Explain renders the assignment, its cost estimates, and the beaten
// alternatives — one line per query kind.
func (p *Plan) Explain() string {
	var sb strings.Builder
	// The topk share only renders when set, so plans (and snapshots) of
	// three-kind workloads keep their exact historical header.
	topk := ""
	if p.Mix.TopK != 0 {
		topk = fmt.Sprintf(" topk=%.2f", p.Mix.TopK)
	}
	fmt.Fprintf(&sb, "plan: n=%d, horizon %.0f queries (mix nonzero=%.2f probs=%.2f expected=%.2f%s), calibration=%s\n",
		p.N, p.Horizon, p.Mix.Nonzero, p.Mix.Probs, p.Mix.Expected, topk, p.calibrationName())
	for _, kind := range queryKinds() {
		ch, ok := p.Choices[kind]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "  %-8s → %-18s est query %s, build %s",
			kind, ch.Backend, fmtNs(ch.QueryNs), fmtNs(ch.BuildNs))
		if ch.RunnerUp != "" {
			fmt.Fprintf(&sb, " (over %s at %s/query)", ch.RunnerUp, fmtNs(ch.RunnerUpNs))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (p *Plan) calibrationName() string {
	if p.Probed {
		return "micro-probe"
	}
	return "table"
}

// fmtNs renders a nanosecond estimate at a human scale.
func fmtNs(ns float64) string {
	switch {
	case ns < 1e3:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.2fms", ns/1e6)
	default:
		return fmt.Sprintf("%.2fs", ns/1e9)
	}
}

// planCandidates lists the backends able to answer kind on ds, cheapest
// estimated query first (ties broken by registry order for determinism).
// BackendTwoStageL1 is deliberately no candidate: squares under L1 are a
// different metric semantics (diamonds), not an alternative
// implementation of the L∞ answer, so the planner never silently swaps
// metrics.
func planCandidates(ds *Dataset, kind Capability, model *CostModel, popt PlannerOptions) []Choice {
	n := ds.N()
	var out []Choice
	for _, b := range Backends() {
		if b == BackendTwoStageL1 || !datasetCaps(b, ds).Has(kind) {
			continue
		}
		q := model.QueryCost(b, kind, n)
		if b == BackendMonteCarlo {
			q *= popt.RandomPenalty
		}
		out = append(out, Choice{Backend: b, QueryNs: q, BuildNs: model.BuildCost(b, n)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].QueryNs < out[j].QueryNs })
	return out
}

// planFor composes the per-kind assignment minimizing total estimated
// cost over the horizon: Σ build(b) over distinct chosen backends +
// Σ_kind weight·horizon·query(kind, b_kind). With at most three kinds
// the assignment space is enumerated exactly, so shared builds (one
// backend serving two kinds) are priced correctly.
func planFor(ds *Dataset, model *CostModel, popt PlannerOptions) *Plan {
	popt = popt.withDefaults()
	// Top-k joins the exhaustive walk only when the workload weighs it:
	// with weight 0 it cannot shift the assignment (it would add zero
	// query cost and its backends are already candidates for probs), but
	// a zero-weight fourth kind in the uniform default would dilute the
	// three legacy shares and could flip near-threshold choices — so
	// unweighted top-k instead rides the probs assignment after the walk
	// (see the ride-along below), keeping three-kind plans bit-identical.
	kinds := []Capability{CapNonzero, CapProbs, CapExpected}
	if popt.Mix.TopK > 0 {
		kinds = append(kinds, CapTopK)
	}
	cands := map[Capability][]Choice{}
	var supported []Capability
	for _, kind := range kinds {
		if cs := planCandidates(ds, kind, model, popt); len(cs) > 0 {
			cands[kind] = cs
			supported = append(supported, kind)
		}
	}
	mix := popt.Mix
	if mix.isZero() {
		for _, kind := range supported {
			switch kind {
			case CapNonzero:
				mix.Nonzero = 1
			case CapProbs:
				mix.Probs = 1
			case CapExpected:
				mix.Expected = 1
			}
		}
	}
	wsum := 0.0
	for _, kind := range supported {
		wsum += mix.weight(kind)
	}
	if wsum <= 0 {
		wsum = 1
	}

	plan := &Plan{N: ds.N(), Mix: mix, Horizon: popt.Horizon, Choices: map[Capability]Choice{}}
	// Exhaustive assignment enumeration (≤ |cands|³ combinations).
	best := -1.0
	var bestPick map[Capability]int
	pick := map[Capability]int{}
	var walk func(i int, acc float64)
	walk = func(i int, acc float64) {
		if best >= 0 && acc >= best {
			return // partial cost only grows
		}
		if i == len(supported) {
			builds := map[Backend]float64{}
			total := acc
			for _, kind := range supported {
				ch := cands[kind][pick[kind]]
				builds[ch.Backend] = ch.BuildNs
			}
			for _, b := range builds {
				total += b
			}
			if best < 0 || total < best {
				best = total
				bestPick = map[Capability]int{}
				for k, v := range pick {
					bestPick[k] = v
				}
			}
			return
		}
		kind := supported[i]
		w := mix.weight(kind) / wsum * popt.Horizon
		for ci, ch := range cands[kind] {
			pick[kind] = ci
			walk(i+1, acc+w*ch.QueryNs)
		}
		delete(pick, kind)
	}
	walk(0, 0)
	for _, kind := range supported {
		cs := cands[kind]
		ch := cs[bestPick[kind]]
		for _, alt := range cs {
			if alt.Backend != ch.Backend {
				ch.RunnerUp, ch.RunnerUpNs = alt.Backend, alt.QueryNs
				break
			}
		}
		plan.Choices[kind] = ch
	}
	// Ride-along: an unweighted top-k kind is served by the probs
	// backend (every topk-capable backend is π-capable, so the part is
	// already built — zero extra build cost, and the walk above stays
	// identical to the three-kind planner).
	if _, done := plan.Choices[CapTopK]; !done {
		if chProbs, ok := plan.Choices[CapProbs]; ok && datasetCaps(chProbs.Backend, ds).Has(CapTopK) {
			q := model.QueryCost(chProbs.Backend, CapTopK, ds.N())
			if chProbs.Backend == BackendMonteCarlo {
				q *= popt.RandomPenalty
			}
			ch := Choice{Backend: chProbs.Backend, QueryNs: q, BuildNs: chProbs.BuildNs}
			for _, alt := range planCandidates(ds, CapTopK, model, popt) {
				if alt.Backend != ch.Backend {
					ch.RunnerUp, ch.RunnerUpNs = alt.Backend, alt.QueryNs
					break
				}
			}
			plan.Choices[CapTopK] = ch
		}
	}
	return plan
}

// PlanDataset computes the cost-based plan for ds without building
// anything — the dry-run entry point (BuildPlanned both plans and
// builds).
func PlanDataset(ds *Dataset, bopt BuildOptions, popt PlannerOptions) *Plan {
	model, probed := plannerModel(ds, bopt, popt)
	plan := planFor(ds, model, popt)
	plan.Probed = probed
	return plan
}

// plannerModel assembles the cost model: supplied calibration table,
// else micro-probe, else seeded defaults.
func plannerModel(ds *Dataset, bopt BuildOptions, popt PlannerOptions) (*CostModel, bool) {
	if popt.Calibration != nil {
		return NewCostModel(popt.Calibration), false
	}
	if popt.NoProbe {
		return NewCostModel(nil), false
	}
	return NewCostModel(Calibrate(ds, bopt, Backends())), true
}

// plannedIndex is the planner's composite: one built instance per
// distinct chosen backend, each query kind delegated to its assigned
// part. It implements Index, so it shards, batches, serves and caches
// exactly like a monolithic backend.
type plannedIndex struct {
	plan      *Plan
	buildOpts BuildOptions
	byKind    map[Capability]Index
	caps      Capability
	hint      float64
	n         int
	ds        *Dataset // retained for snapshot export
}

func (px *plannedIndex) Name() string {
	var parts []string
	for _, kind := range queryKinds() {
		if ch, ok := px.plan.Choices[kind]; ok {
			parts = append(parts, fmt.Sprintf("%s=%s", kind, ch.Backend))
		}
	}
	return "planned(" + strings.Join(parts, ",") + ")"
}

func (px *plannedIndex) Capabilities() Capability { return px.caps }

// Len returns the dataset size (feeds Engine.ObserveInto).
func (px *plannedIndex) Len() int { return px.n }

// Plan returns the decision behind the composite.
func (px *plannedIndex) Plan() *Plan { return px.plan }

// Explain implements the optional explainer the Engine surfaces.
func (px *plannedIndex) Explain() string { return px.plan.Explain() }

// QuantumHint implements the adaptive cache-quantum hint: the finest
// hint among the parts (the diagram backend reports real cell extents),
// falling back to the dataset-spacing estimate.
func (px *plannedIndex) QuantumHint() float64 { return px.hint }

// kindBackend reports which backend serves kind (Engine.ObserveInto).
func (px *plannedIndex) kindBackend(kind Capability) (Backend, bool) {
	ch, ok := px.plan.Choices[kind]
	return ch.Backend, ok
}

func (px *plannedIndex) Build(ds *Dataset) error {
	parts := map[Backend]Index{}
	px.byKind = map[Capability]Index{}
	px.caps = 0
	px.n = ds.N()
	px.ds = ds
	for kind, ch := range px.plan.Choices {
		ix, ok := parts[ch.Backend]
		if !ok {
			var err error
			ix, err = Build(ch.Backend, ds, px.buildOpts)
			if err != nil {
				return fmt.Errorf("planned %s: %w", ch.Backend, err)
			}
			parts[ch.Backend] = ix
		}
		if !ix.Capabilities().Has(kind) {
			return fmt.Errorf("planned %s: built index lost %s on this dataset", ch.Backend, kind)
		}
		px.byKind[kind] = ix
		px.caps |= kind
	}
	px.hint = autoQuantum(ds)
	for _, ix := range parts {
		if h, ok := ix.(quantumHinter); ok {
			if q := h.QuantumHint(); q > 0 && (px.hint <= 0 || q < px.hint) {
				px.hint = q
			}
		}
	}
	return nil
}

func (px *plannedIndex) QueryNonzero(q geom.Point) ([]int, error) {
	if ix, ok := px.byKind[CapNonzero]; ok {
		return ix.QueryNonzero(q)
	}
	return nil, ErrUnsupported
}

func (px *plannedIndex) QueryProbs(q geom.Point, eps float64) ([]quantify.Prob, error) {
	if ix, ok := px.byKind[CapProbs]; ok {
		return ix.QueryProbs(q, eps)
	}
	return nil, ErrUnsupported
}

func (px *plannedIndex) QueryExpected(q geom.Point) (int, float64, error) {
	if ix, ok := px.byKind[CapExpected]; ok {
		return ix.QueryExpected(q)
	}
	return -1, 0, ErrUnsupported
}

func (px *plannedIndex) QueryTopK(q geom.Point, k int, eps float64) ([]quantify.Prob, error) {
	if ix, ok := px.byKind[CapTopK]; ok {
		return queryTopKOf(ix, q, k, eps)
	}
	return nil, ErrUnsupported
}

// BuildPlanned builds the cost-based composite for ds: the planner picks
// a backend per query kind and the result answers every kind some
// backend could answer — the cost-optimal counterpart of BuildAuto's
// rule-based choice. With sopt.Shards ≥ 1 the dataset is sharded and
// *each shard re-plans at its own size* (a small shard may keep the
// cheap-to-build oracle while a large one buys the two-stage structure),
// replacing the old hardcoded small→brute / large→two-stage rule. The
// calibration (probe or table) runs once and is shared by all shards.
func BuildPlanned(ds *Dataset, bopt BuildOptions, sopt ShardOptions, popt PlannerOptions) (Index, *Plan, error) {
	popt = popt.withDefaults()
	bopt = bopt.withDefaults()
	model, probed := plannerModel(ds, bopt, popt)
	plan := planFor(ds, model, popt)
	plan.Probed = probed
	if len(plan.Choices) == 0 {
		return nil, nil, fmt.Errorf("engine: build planned: no backend can serve this dataset")
	}
	factory := func(sub *Dataset) (Index, error) {
		p := planFor(sub, model, popt)
		p.Probed = probed
		px := &plannedIndex{plan: p, buildOpts: bopt}
		if err := px.Build(sub); err != nil {
			return nil, err
		}
		return px, nil
	}
	if sopt.Shards <= 0 {
		ix, err := factory(ds)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: build planned: %w", err)
		}
		return ix, plan, nil
	}
	sx := newShardedFunc("planned", factory, bopt, sopt)
	if ds.Squares != nil {
		sx.metric = metricLinf
	}
	sx.planNote = plan.Explain()
	sx.model = model // prices the insert-buffer flush threshold (mutlog.go)
	sx.popt = &popt
	sx.probed = probed
	if err := sx.Build(ds); err != nil {
		return nil, nil, fmt.Errorf("engine: build planned: %w", err)
	}
	return sx, plan, nil
}
