package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"unn/internal/constructions"
	"unn/internal/geom"
)

// TestPlanDeterministic: without a calibration table the planner runs on
// the seeded defaults, so repeated plans of one dataset are equal — both
// the dry run and the plan BuildPlanned builds.
func TestPlanDeterministic(t *testing.T) {
	for _, n := range []int{100, 600, 2000} {
		rng := rand.New(rand.NewSource(int64(n)))
		ds := FromDiscrete(constructions.RandomDiscrete(rng, n, 3, 10*float64(n), 2, 1))
		first := PlanDataset(ds, PlannerOptions{})
		for i := 0; i < 2; i++ {
			if p := PlanDataset(ds, PlannerOptions{}); !reflect.DeepEqual(p, first) {
				t.Fatalf("n=%d: PlanDataset call %d\n%s\ndiffers from the first\n%s", n, i+2, p.Explain(), first.Explain())
			}
		}
		var built *Plan
		for i := 0; i < 2; i++ {
			_, p, err := BuildPlanned(ds, BuildOptions{}, ShardOptions{}, PlannerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if built != nil && !reflect.DeepEqual(p, built) {
				t.Fatalf("n=%d: BuildPlanned plans differ:\n%s\n%s", n, p.Explain(), built.Explain())
			}
			built = p
		}
		if built.Explain() != first.Explain() {
			t.Fatalf("n=%d: BuildPlanned planned\n%s\nthe dry run\n%s", n, built.Explain(), first.Explain())
		}
	}
}

// TestAutoMatchesBackends: Auto is a fixed assignment, so each kind's
// answer equals that of the named backend its rule assigns, built alone
// with the same BuildOptions and sharding — bit for bit, π included.
func TestAutoMatchesBackends(t *testing.T) {
	for _, pd := range plannerDatasets(t) {
		rule := autoRule(pd.ds)
		for _, k := range []int{0, 1, 3} {
			sopt := ShardOptions{Shards: k}
			auto, err := BuildAuto(pd.ds, pd.bopt, sopt)
			if err != nil {
				t.Fatalf("%s k=%d: auto: %v", pd.name, k, err)
			}
			named := map[Backend]Index{}
			for _, b := range rule {
				ix, err := BuildSharded(b, pd.ds, pd.bopt, sopt)
				if err != nil {
					t.Fatalf("%s k=%d: %s: %v", pd.name, k, b, err)
				}
				named[b] = ix
			}
			// The reference for each kind: the first rule backend that
			// answers it; kinds none answers must be unsupported by Auto.
			ref := map[Capability]Index{}
			for _, kind := range queryKinds() {
				for _, b := range rule {
					if named[b].Capabilities().Has(kind) {
						ref[kind] = named[b]
						break
					}
				}
				if _, ok := ref[kind]; ok != auto.Capabilities().Has(kind) {
					t.Fatalf("%s k=%d: auto caps %v disagree with its rule on %s", pd.name, k, auto.Capabilities(), kind)
				}
			}
			qrng := rand.New(rand.NewSource(0xa070))
			for qi := 0; qi < 24; qi++ {
				q := geom.Pt(qrng.Float64()*pd.side, qrng.Float64()*pd.side)
				for kind, ix := range ref {
					got, gerr := answerOf(auto, kind, q)
					want, werr := answerOf(ix, kind, q)
					if gerr != nil || werr != nil {
						t.Fatalf("%s k=%d q=%v %s: errors %v / %v", pd.name, k, q, kind, gerr, werr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s k=%d q=%v %s: auto %v, %s alone %v", pd.name, k, q, kind, got, ix.Name(), want)
					}
				}
			}
		}
	}
}

// answerOf runs one query of kind on ix (top-k with k = 3).
func answerOf(ix Index, kind Capability, q geom.Point) (any, error) {
	switch kind {
	case CapNonzero:
		return ix.QueryNonzero(q)
	case CapProbs:
		return ix.QueryProbs(q, 0)
	case CapExpected:
		i, d, err := ix.QueryExpected(q)
		return [2]float64{float64(i), d}, err
	default:
		return queryTopKOf(ix, q, 3, 0)
	}
}

// TestQuantumHintUnchanged pins the adaptive cache quantum of auto,
// planned and diagram handles, monolithic and sharded, to the formula
// that recomputes every part's spacing estimate (refHint): sharing one
// estimate per composite must not move the resolved quantum by a bit.
func TestQuantumHintUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9a4e))
	discrete := FromDiscrete(constructions.RandomDiscrete(rng, 18, 2, 40, 2.0, 1))
	disks := FromDisks(constructions.RandomDisks(rng, 30, 60, 0.5, 2.0))
	// A table that makes the diagram the cheapest NN≠0 backend, so the
	// planned composite mixes a part with its own hint (the diagram's
	// cell extents) and parts without one.
	diagramCheap := PlannerOptions{Calibration: Calibration{
		{BackendDiagram, OpBuild}:        1e-9,
		{BackendDiagram, OpQueryNonzero}: 1e-9,
	}}
	for _, k := range []int{0, 3} {
		sopt := ShardOptions{Shards: k}
		cases := map[string]func() (Index, error){
			"auto-discrete": func() (Index, error) { return BuildAuto(discrete, BuildOptions{}, sopt) },
			"auto-disks":    func() (Index, error) { return BuildAuto(disks, BuildOptions{MCRounds: 16}, sopt) },
			"planned": func() (Index, error) {
				ix, _, err := BuildPlanned(discrete, BuildOptions{}, sopt, diagramCheap)
				return ix, err
			},
			"diagram": func() (Index, error) { return BuildSharded(BackendDiagram, discrete, BuildOptions{}, sopt) },
		}
		for name, build := range cases {
			ix, err := build()
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if name == "planned" && !containsBackend(ix, BackendDiagram) {
				t.Fatalf("planned k=%d: no diagram part in %s", k, ix.Name())
			}
			want := refHint(t, ix)
			got := NewEngine(ix, Options{CacheQuantum: -1}).CacheQuantum()
			if !(want > 0) || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s k=%d: cache quantum %v, want %v", name, k, got, want)
			}
		}
	}
}

// refHint is the cache-quantum hint of a built index with the spacing
// estimate recomputed for every part: an adapter's own hint when
// positive, else the estimate of its dataset; a composite or sharded
// fleet takes the finest positive value among the estimate of its whole
// dataset and its parts' hints.
func refHint(t *testing.T, ix Index) float64 {
	finer := func(best, q float64) float64 {
		if q > 0 && (best <= 0 || q < best) {
			return q
		}
		return best
	}
	switch v := ix.(type) {
	case hintedIndex:
		if h, ok := v.Index.(quantumHinter); ok {
			if q := h.QuantumHint(); q > 0 {
				return q
			}
		}
		return autoQuantum(v.ds)
	case *plannedIndex:
		best := autoQuantum(v.ds)
		for _, p := range v.partsInOrder() {
			best = finer(best, refHint(t, p))
		}
		return best
	case *ShardedIndex:
		best := autoQuantum(v.ds)
		for _, s := range v.shards {
			if s.ix != nil {
				best = finer(best, refHint(t, s.ix))
			}
		}
		return best
	}
	t.Fatalf("refHint: unexpected index type %T", ix)
	return 0
}

// containsBackend reports whether b is a part of ix or of any shard.
func containsBackend(ix Index, b Backend) bool {
	switch v := ix.(type) {
	case *plannedIndex:
		for _, ch := range v.plan.Choices {
			if ch.Backend == b {
				return true
			}
		}
	case *ShardedIndex:
		for _, s := range v.shards {
			if s.ix != nil && containsBackend(s.ix, b) {
				return true
			}
		}
	}
	return false
}
