package engine

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"unn/internal/constructions"
	"unn/internal/geom"
	"unn/internal/lmetric"
	"unn/internal/quantify"
	"unn/internal/uncertain"
)

// plannerDataset is one dataset kind of the parity sweep.
type plannerDataset struct {
	name string
	ds   *Dataset
	side float64
	bopt BuildOptions
	// piTol is the π tolerance for sharded composites (k ≥ 1); the
	// monolithic tolerance is derived from the plan's chosen backend.
	piTol float64
	// piRef answers the reference π vector (nil when no reference exists
	// for this dataset kind).
	piRef func(q geom.Point) []quantify.Prob
	// nzRef answers the reference NN≠0 set.
	nzRef func(q geom.Point) []int
	// edRef answers the reference expected-distance NN (dist = NaN when
	// the kind has no E[d] semantics).
	edRef func(q geom.Point) (int, float64)
}

func plannerDatasets(t *testing.T) []plannerDataset {
	t.Helper()
	rng := rand.New(rand.NewSource(0x91a9))
	var out []plannerDataset

	// Discrete: the brute reference answers all three kinds exactly.
	{
		pts := constructions.RandomDiscrete(rng, 60, 3, 90, 2.0, 1)
		ds := FromDiscrete(pts)
		out = append(out, plannerDataset{
			name: "discrete", ds: ds, side: 90,
			// Sharded discrete π goes through the exact Eq. (2) merge path
			// whatever the per-shard backends, so parity is bit-level.
			piTol: 1e-9,
			piRef: func(q geom.Point) []quantify.Prob { return quantify.ExactPositive(pts, q) },
			nzRef: func(q geom.Point) []int { return bruteNonzero(ds, q) },
			edRef: func(q geom.Point) (int, float64) {
				best, bestD := -1, math.Inf(1)
				for i, p := range pts {
					if d := p.ExpectedDist(q); d < bestD {
						best, bestD = i, d
					}
				}
				return best, bestD
			},
		})
	}

	// Disks: NN≠0 only.
	{
		disks := constructions.RandomDisks(rng, 40, 70, 0.5, 2.0)
		ds := FromDisks(disks)
		out = append(out, plannerDataset{
			name: "disks", ds: ds, side: 70,
			nzRef: func(q geom.Point) []int { return bruteNonzero(ds, q) },
		})
	}

	// Continuous mixed (disk + truncated-Gaussian regions): NN≠0 via the
	// oracle, π only by Monte Carlo — the planner must still compose a
	// full-capability answer for both, and the sharded merge stays within
	// a Monte-Carlo tolerance of the monolithic estimate.
	{
		pts := make([]uncertain.Point, 16)
		for i := range pts {
			d := geom.DiskAt(rng.Float64()*50, rng.Float64()*50, 1.5+rng.Float64()*2)
			if i%2 == 0 {
				pts[i] = uncertain.UniformDisk{D: d}
			} else {
				pts[i] = uncertain.NewTruncGauss(d, d.R/2)
			}
		}
		ds := FromPoints(pts)
		bopt := BuildOptions{MCRounds: 768}
		mono, err := Build(BackendMonteCarlo, ds, bopt)
		if err != nil {
			t.Fatalf("continuous reference: %v", err)
		}
		out = append(out, plannerDataset{
			name: "continuous", ds: ds, side: 50, bopt: bopt,
			piTol: 0.2,
			piRef: func(q geom.Point) []quantify.Prob {
				ps, err := mono.QueryProbs(q, 0)
				if err != nil {
					t.Fatalf("continuous reference query: %v", err)
				}
				return ps
			},
			nzRef: func(q geom.Point) []int { return bruteNonzero(ds, q) },
		})
	}

	// Squares (L∞): only the lmetric family serves them; the reference is
	// the monolithic two-stage L∞ structure.
	{
		sq := make([]lmetric.Square, 30)
		for i := range sq {
			sq[i] = lmetric.Square{C: geom.Pt(rng.Float64()*60, rng.Float64()*60), R: 0.4 + rng.Float64()}
		}
		ds := FromSquares(sq)
		mono, err := Build(BackendTwoStageLinf, ds, BuildOptions{})
		if err != nil {
			t.Fatalf("squares reference: %v", err)
		}
		out = append(out, plannerDataset{
			name: "squares", ds: ds, side: 60,
			nzRef: func(q geom.Point) []int {
				nz, err := mono.QueryNonzero(q)
				if err != nil {
					t.Fatalf("squares reference query: %v", err)
				}
				return nz
			},
		})
	}
	return out
}

// bruteNonzero runs the Lemma 2.1 oracle through the brute backend.
func bruteNonzero(ds *Dataset, q geom.Point) []int {
	ix, err := Build(BackendBrute, ds, BuildOptions{})
	if err != nil {
		panic(err)
	}
	nz, err := ix.QueryNonzero(q)
	if err != nil {
		panic(err)
	}
	return nz
}

// probsWithin asserts two sparse π vectors agree within tol on the union
// of their supports.
func probsWithin(t *testing.T, tag string, got, want []quantify.Prob, tol float64) {
	t.Helper()
	gm := map[int]float64{}
	for _, p := range got {
		gm[p.I] = p.P
	}
	wm := map[int]float64{}
	for _, p := range want {
		wm[p.I] = p.P
	}
	for i, g := range gm {
		if math.Abs(g-wm[i]) > tol {
			t.Fatalf("%s: π[%d] = %v, want %v (±%v)", tag, i, g, wm[i], tol)
		}
	}
	for i, w := range wm {
		if math.Abs(w-gm[i]) > tol {
			t.Fatalf("%s: π[%d] = %v (missing), want %v (±%v)", tag, i, gm[i], w, tol)
		}
	}
}

// monoPiTol maps the monolithic plan's chosen π backend to its parity
// tolerance: exact backends are bit-level, the spiral's additive-eps
// guarantee gets eps plus slack, Monte Carlo its sampling noise.
func monoPiTol(b Backend) float64 {
	switch b {
	case BackendBrute, BackendVPr:
		return 1e-9
	case BackendSpiral:
		return 0.05
	default:
		return 0.25
	}
}

// TestPlannerParity: every planner-chosen composite must stay
// bit-identical to the brute reference on NN≠0 and within eps on π and
// E[d], across all dataset kinds and shard counts k ∈ {1, 2, 4, 7}
// (plus the monolithic composite), whatever backends the calibration
// picked on this machine.
func TestPlannerParity(t *testing.T) {
	for _, pd := range plannerDatasets(t) {
		pd := pd
		t.Run(pd.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xbeef ^ int64(len(pd.name))))
			qs := randQueries(rng, 24, pd.side)
			for _, k := range []int{0, 1, 2, 4, 7} {
				ix, plan, err := BuildPlanned(pd.ds, pd.bopt, ShardOptions{Shards: k}, PlannerOptions{})
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if len(plan.Choices) == 0 {
					t.Fatalf("k=%d: empty plan", k)
				}
				caps := ix.Capabilities()
				if pd.nzRef != nil && !caps.Has(CapNonzero) {
					t.Fatalf("k=%d: planner lost CapNonzero (caps %v)", k, caps)
				}
				piTol := pd.piTol
				if k == 0 {
					if ch, ok := plan.Choices[CapProbs]; ok {
						piTol = monoPiTol(ch.Backend)
					}
				}
				for qi, q := range qs {
					if pd.nzRef != nil {
						want := pd.nzRef(q)
						got, err := ix.QueryNonzero(q)
						if err != nil {
							t.Fatalf("k=%d q%d: nonzero: %v", k, qi, err)
						}
						if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
							t.Fatalf("k=%d q%d: NN≠0 = %v, want %v (plan %s)", k, qi, got, want, ix.Name())
						}
					}
					if pd.piRef != nil {
						want := pd.piRef(q)
						got, err := ix.QueryProbs(q, 0)
						if err != nil {
							t.Fatalf("k=%d q%d: probs: %v", k, qi, err)
						}
						probsWithin(t, pd.name, got, want, piTol)
					}
					if pd.edRef != nil {
						wi, wd := pd.edRef(q)
						gi, gd, err := ix.QueryExpected(q)
						if err != nil {
							t.Fatalf("k=%d q%d: expected: %v", k, qi, err)
						}
						if math.Abs(gd-wd) > 1e-9 {
							t.Fatalf("k=%d q%d: E[d] = %v, want %v", k, qi, gd, wd)
						}
						if gi != wi && gd != wd {
							t.Fatalf("k=%d q%d: E[d] winner %d (%v), want %d (%v)", k, qi, gi, gd, wi, wd)
						}
					}
				}
			}
		})
	}
}

// TestPlannerCoversAuto: the planner must support every query kind the
// rule-based auto router supports on the same dataset — cost optimality
// never costs capability.
func TestPlannerCoversAuto(t *testing.T) {
	for _, pd := range plannerDatasets(t) {
		auto, err := BuildAuto(pd.ds, pd.bopt, ShardOptions{})
		if err != nil {
			t.Fatalf("%s: auto: %v", pd.name, err)
		}
		planned, _, err := BuildPlanned(pd.ds, pd.bopt, ShardOptions{}, PlannerOptions{})
		if err != nil {
			t.Fatalf("%s: planned: %v", pd.name, err)
		}
		if !planned.Capabilities().Has(auto.Capabilities()) {
			t.Fatalf("%s: planner caps %v lost some of auto's %v",
				pd.name, planned.Capabilities(), auto.Capabilities())
		}
	}
}

// TestPlannerRejectsEmpty: a dataset no backend can serve fails loudly.
func TestPlannerRejectsEmpty(t *testing.T) {
	_, _, err := BuildPlanned(&Dataset{}, BuildOptions{}, ShardOptions{}, PlannerOptions{})
	if err == nil {
		t.Fatal("BuildPlanned over an empty dataset succeeded")
	}
}

// TestPlannerExplain: the explanation names every chosen backend with
// its cost estimates, both monolithic and sharded (per-shard plans).
func TestPlannerExplain(t *testing.T) {
	rng := rand.New(rand.NewSource(0xe59))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 40, 2, 50, 2.0, 1))
	ix, plan, err := BuildPlanned(ds, BuildOptions{}, ShardOptions{}, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ix, Options{})
	expl := eng.Explain()
	if !strings.Contains(expl, "plan: n=40") {
		t.Fatalf("Explain missing plan header:\n%s", expl)
	}
	for kind, ch := range plan.Choices {
		if !strings.Contains(expl, string(ch.Backend)) {
			t.Fatalf("Explain missing %v choice %s:\n%s", kind, ch.Backend, expl)
		}
	}
	// Sharded: per-shard lines plus the dataset-level plan note.
	sx, _, err := BuildPlanned(ds, BuildOptions{}, ShardOptions{Shards: 3}, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sexpl := NewEngine(sx, Options{}).Explain()
	if !strings.Contains(sexpl, "shard 0") || !strings.Contains(sexpl, "plan: n=40") {
		t.Fatalf("sharded Explain missing per-shard lines or plan note:\n%s", sexpl)
	}
	// The rule-based auto explains its routing too.
	pts := make([]uncertain.Point, 8)
	for i := range pts {
		pts[i] = uncertain.UniformDisk{D: geom.DiskAt(float64(i)*3, 0, 1)}
	}
	cds := FromPoints(pts)
	cds.Disks = nil // force the mixed-continuous composite
	auto, err := BuildAuto(cds, BuildOptions{}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aexpl := NewEngine(auto, Options{}).Explain()
	if !strings.Contains(aexpl, "rule-based auto") {
		t.Fatalf("auto Explain = %q, want the routing rule", aexpl)
	}
}

// TestPlannerMixSteersChoice: a workload that is all-π must never spend
// the probs assignment on the brute Õ(n²) sweep when a sublinear
// alternative exists, and a tiny horizon must avoid expensive builds for
// kinds that are barely queried.
func TestPlannerMixSteersChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(0x3a11))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 400, 3, 2000, 2.0, 1))
	// All-π workload, generous horizon: the chosen probs backend must be
	// sublinear per query (spiral, vpr, or MC — not the brute sweep).
	_, plan, err := BuildPlanned(ds, BuildOptions{}, ShardOptions{},
		PlannerOptions{Mix: Workload{Probs: 1}, Horizon: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if ch := plan.Choices[CapProbs]; ch.Backend == BackendBrute {
		t.Fatalf("all-π workload at n=400, horizon 2^20 still picked the brute sweep:\n%s", plan.Explain())
	}
	// A one-query horizon amortizes no build: the cheapest-to-build
	// backend (the oracle) must win NN≠0.
	_, plan, err = BuildPlanned(ds, BuildOptions{}, ShardOptions{},
		PlannerOptions{Mix: Workload{Nonzero: 1}, Horizon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ch := plan.Choices[CapNonzero]; ch.Backend != BackendBrute {
		t.Fatalf("one-shot NN≠0 workload built %s instead of the free oracle:\n%s",
			ch.Backend, plan.Explain())
	}
}

// TestCalibrationFromJSON: a persisted BENCH_engine.json drives the
// model without probing, and its coefficients are the measured
// cost / term ratios.
func TestCalibrationFromJSON(t *testing.T) {
	recs := []map[string]any{
		{"exp": "E16", "backend": "brute", "n": 100, "build_ns": 1000, "query_ns_op": 2500.0},
		{"exp": "E16", "backend": "spiral", "n": 100, "build_ns": 664386, "query_ns_op": 665.0},
		{"exp": "E17", "backend": "brute", "n": 100, "build_ns": 9e9, "query_ns_op": 9e9}, // ignored: not E16
		{"exp": "E16", "backend": "nosuch", "n": 100, "build_ns": 1, "query_ns_op": 1.0},  // ignored: unknown
	}
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := CalibrationFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := cal[CostKey{BackendBrute, OpQueryNonzero}]; math.Abs(got-25) > 1e-9 {
		t.Fatalf("brute nonzero coefficient = %v, want 25 (2500ns / n=100)", got)
	}
	if got := cal[CostKey{BackendBrute, OpBuild}]; math.Abs(got-10) > 1e-9 {
		t.Fatalf("brute build coefficient = %v, want 10", got)
	}
	if _, ok := cal[CostKey{Backend("nosuch"), OpBuild}]; ok {
		t.Fatal("unknown backend leaked into the calibration")
	}
	// The table feeds the same plan machinery.
	rng := rand.New(rand.NewSource(0x7ab))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 50, 2, 60, 2.0, 1))
	if _, _, err := BuildPlanned(ds, BuildOptions{}, ShardOptions{}, PlannerOptions{Calibration: cal}); err != nil {
		t.Fatal(err)
	}
	if _, err := CalibrationFromJSON([]byte("{not json")); err == nil {
		t.Fatal("malformed table parsed")
	}
	// A table with no usable E16 rows must fail too — it would otherwise
	// silently plan on the seeded defaults.
	if _, err := CalibrationFromJSON([]byte(`[{"exp":"E17","backend":"brute","n":10,"query_ns_op":5}]`)); err == nil {
		t.Fatal("E16-free table accepted")
	}
}

// TestEngineStats: the per-kind latency counters tick for every query
// (batch slots included), and ObserveInto folds the means back into a
// cost model under the per-kind serving backend.
func TestEngineStats(t *testing.T) {
	rng := rand.New(rand.NewSource(0x57a7))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 30, 2, 40, 2.0, 1))
	ix, _, err := BuildPlanned(ds, BuildOptions{}, ShardOptions{}, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ix, Options{Workers: 2})
	qs := randQueries(rng, 10, 40)
	if _, err := eng.BatchNonzero(qs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryProbs(qs[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.QueryExpected(qs[1]); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if got := st.Kind(CapNonzero).Count; got != uint64(len(qs)) {
		t.Fatalf("nonzero count = %d, want %d", got, len(qs))
	}
	if st.Kind(CapProbs).Count != 1 || st.Kind(CapExpected).Count != 1 {
		t.Fatalf("probs/expected counts = %d/%d, want 1/1", st.Kind(CapProbs).Count, st.Kind(CapExpected).Count)
	}
	if st.Kind(CapNonzero).MeanNs() <= 0 {
		t.Fatal("nonzero mean latency not recorded")
	}
	model := NewCostModel(nil)
	eng.ObserveInto(model)
	// The observation lands on whichever backend serves NN≠0 in the plan;
	// at least one coefficient must have moved off the seeded default.
	moved := func(m *CostModel) bool {
		base := NewCostModel(nil)
		for _, b := range Backends() {
			if m.QueryCost(b, CapNonzero, 1000) != base.QueryCost(b, CapNonzero, 1000) {
				return true
			}
		}
		return false
	}
	if !moved(model) {
		t.Fatal("ObserveInto left every nonzero coefficient untouched")
	}
	// The feedback loop also works for a plain pinned backend and for the
	// rule-based auto composite — not just planned indexes.
	for name, build := range map[string]func() (Index, error){
		"plain": func() (Index, error) { return Build(BackendBrute, ds, BuildOptions{}) },
		"auto":  func() (Index, error) { return BuildAuto(ds, BuildOptions{}, ShardOptions{}) },
	} {
		ix, err := build()
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(ix, Options{})
		if _, err := e.QueryNonzero(qs[0]); err != nil {
			t.Fatal(err)
		}
		m := NewCostModel(nil)
		e.ObserveInto(m)
		if !moved(m) {
			t.Fatalf("%s handle: ObserveInto recorded nothing", name)
		}
	}
}

// TestAdaptiveCacheQuantum: a negative CacheQuantum resolves to the
// built structure's hint — real slab extents for the diagram backend,
// the centroid-spacing estimate elsewhere — and nearby queries then
// share cache entries.
func TestAdaptiveCacheQuantum(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9045))
	disks := constructions.RandomDisks(rng, 12, 30, 0.5, 1.5)
	diag, err := Build(BackendDiagram, FromDisks(disks), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, ok := diag.(quantumHinter)
	if !ok {
		t.Fatal("diagram backend lost its quantum hint")
	}
	if q := h.QuantumHint(); q <= 0 {
		t.Fatalf("diagram quantum hint = %v, want > 0", q)
	}
	eng := NewEngine(diag, Options{CacheSize: 64, CacheQuantum: -1})
	if eng.CacheQuantum() <= 0 {
		t.Fatalf("adaptive quantum resolved to %v", eng.CacheQuantum())
	}
	q0 := geom.Pt(15, 15)
	q1 := geom.Pt(15+eng.CacheQuantum()/100, 15)
	if _, err := eng.QueryNonzero(q0); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryNonzero(q1); err != nil {
		t.Fatal(err)
	}
	hits, _ := eng.CacheStats()
	if hits == 0 {
		t.Fatalf("queries %v apart under quantum %v missed the cache", q1.X-q0.X, eng.CacheQuantum())
	}
	if st := eng.Stats(); st.CacheQuantum != eng.CacheQuantum() {
		t.Fatalf("Stats.CacheQuantum = %v, want %v", st.CacheQuantum, eng.CacheQuantum())
	}
	// Non-diagram backends fall back to the dataset-spacing estimate.
	brute, err := Build(BackendBrute, FromDisks(disks), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	be := NewEngine(brute, Options{CacheSize: 64, CacheQuantum: -1})
	if be.CacheQuantum() <= 0 {
		t.Fatalf("brute adaptive quantum = %v, want the centroid-spacing estimate", be.CacheQuantum())
	}
	// An explicit quantum still wins over the hint.
	fixed := NewEngine(brute, Options{CacheSize: 64, CacheQuantum: 0.125})
	if fixed.CacheQuantum() != 0.125 {
		t.Fatalf("explicit quantum overridden: %v", fixed.CacheQuantum())
	}
}

// TestShardedContinuousPiConditional: the sharded continuous π merge
// conditions the cross-shard survival on the in-shard win, so the
// sharded Monte-Carlo estimate stays within sampling tolerance of the
// monolithic one — including configurations where in-shard and
// cross-shard competition are strongly coupled (overlapping disks
// within and across shards).
func TestShardedContinuousPiConditional(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc0de))
	disks := make([]geom.Disk, 12)
	for i := range disks {
		// Three clusters of four overlapping disks: within a cluster the
		// in-shard survival varies sharply over the candidate's distance
		// range, which is exactly where the unconditional factorization
		// biased the merge.
		cx := float64(i/4) * 12
		disks[i] = geom.DiskAt(cx+rng.Float64()*3, rng.Float64()*3, 1.5+rng.Float64())
	}
	ds := FromDisks(disks)
	bopt := BuildOptions{MCRounds: 2048}
	mono, err := Build(BackendMonteCarlo, ds, bopt)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := NewSharded(BackendMonteCarlo, bopt, ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Build(ds); err != nil {
		t.Fatal(err)
	}
	for _, q := range randQueries(rng, 16, 26) {
		want, err := mono.QueryProbs(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sx.QueryProbs(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		probsWithin(t, "continuous-π", got, want, 0.1)
		total := 0.0
		for _, p := range got {
			total += p.P
		}
		if len(got) > 0 && math.Abs(total-1) > 1e-9 {
			t.Fatalf("merged π sums to %v, want 1", total)
		}
	}
}

// TestPlannedDynamicMutations: a planner-built sharded handle accepts
// Insert/Delete (each rebuild re-plans the shard at its new size) and
// keeps NN≠0 parity with the brute reference.
func TestPlannedDynamicMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd1a))
	pool := constructions.RandomDiscrete(rng, 60, 2, 80, 2.0, 1)
	live := append([]*uncertain.Discrete(nil), pool[:40]...)
	ix, _, err := BuildPlanned(FromDiscrete(append([]*uncertain.Discrete(nil), live...)),
		BuildOptions{}, ShardOptions{Shards: 3}, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sx, ok := ix.(*ShardedIndex)
	if !ok {
		t.Fatalf("sharded planner built %T", ix)
	}
	for step := 0; step < 30; step++ {
		if step%2 == 0 {
			p := pool[40+step/2]
			if _, err := sx.Insert(Item{Point: p}); err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		} else {
			di := rng.Intn(len(live))
			if _, err := sx.Delete(di); err != nil {
				t.Fatal(err)
			}
			live = append(live[:di], live[di+1:]...)
		}
	}
	ref := FromDiscrete(live)
	for _, q := range randQueries(rng, 12, 80) {
		want := bruteNonzero(ref, q)
		got, err := sx.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("after churn: NN≠0 = %v, want %v", got, want)
		}
	}
}

// TestPlannerRequiresAutoBackend mirrors the public-API contract: the
// capability check still reports unsupported kinds through a planned
// composite (squares have no π backend at all).
func TestPlannerUnsupportedKind(t *testing.T) {
	sq := []lmetric.Square{{C: geom.Pt(0, 0), R: 1}, {C: geom.Pt(5, 5), R: 1}}
	ix, _, err := BuildPlanned(FromSquares(sq), BuildOptions{}, ShardOptions{}, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.QueryProbs(geom.Pt(1, 1), 0); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("squares π err = %v, want ErrUnsupported", err)
	}
}
