package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"unn/internal/constructions"
	"unn/internal/geom"
	"unn/internal/quantify"
	"unn/internal/uncertain"
)

var parityKs = []int{1, 2, 4, 7}

// shardedOver wraps backend b over ds at k shards (t.Fatal on error).
func shardedOver(t *testing.T, b Backend, ds *Dataset, k int, bopt BuildOptions) Index {
	t.Helper()
	ix, err := BuildSharded(b, ds, bopt, ShardOptions{Shards: k})
	if err != nil {
		t.Fatalf("sharded %s k=%d: %v", b, k, err)
	}
	return ix
}

// probsMaxDiff renders two sparse π vectors dense and returns their L∞
// distance.
func probsMaxDiff(a, b []quantify.Prob, n int) float64 {
	da, db := make([]float64, n), make([]float64, n)
	for _, pr := range a {
		da[pr.I] = pr.P
	}
	for _, pr := range b {
		db[pr.I] = pr.P
	}
	m := 0.0
	for i := range da {
		if d := math.Abs(da[i] - db[i]); d > m {
			m = d
		}
	}
	return m
}

// TestShardedParity is the merge planner's core contract: for every
// backend and k ∈ {1,2,4,7}, the sharded index answers every supported
// query kind identically to the monolithic backend — bit-identical NN≠0
// sets, π within 1e-12 for the exact probability backends, and the same
// expected-distance NN. The approximating probability backends (spiral,
// montecarlo) are checked against the exact reference at their own
// accuracy level, since sharding legitimately changes which prefix /
// samples they see.
func TestShardedParity(t *testing.T) {
	for _, tc := range allBackendCases(t) {
		tc := tc
		name := string(tc.backend) + "/" + map[bool]string{true: "disks", false: "pts"}[tc.ds.Disks != nil]
		t.Run(name, func(t *testing.T) {
			mono, err := Build(tc.backend, tc.ds, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(0x5a4d ^ int64(tc.ds.N())))
			qs := randQueries(rng, 48, tc.side)
			var exact []*uncertain.Discrete
			if tc.ds.Discrete != nil {
				exact = tc.ds.Discrete
			}
			approx := tc.backend == BackendMonteCarlo || tc.backend == BackendSpiral
			for _, k := range parityKs {
				sx := shardedOver(t, tc.backend, tc.ds, k, BuildOptions{})
				if got := sx.Capabilities(); got != tc.caps {
					t.Fatalf("k=%d: capabilities = %v, want %v", k, got, tc.caps)
				}
				for _, q := range qs {
					if tc.caps.Has(CapNonzero) {
						want, err1 := mono.QueryNonzero(q)
						got, err2 := sx.QueryNonzero(q)
						if err1 != nil || err2 != nil {
							t.Fatalf("k=%d: nonzero errs %v / %v", k, err1, err2)
						}
						if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
							t.Fatalf("k=%d q=%v: nonzero %v, want %v", k, q, got, want)
						}
					}
					if tc.caps.Has(CapProbs) {
						got, err := sx.QueryProbs(q, 0)
						if err != nil {
							t.Fatalf("k=%d: probs err %v", k, err)
						}
						if approx && k > 1 {
							// Sharded approximators: compare against the exact
							// reference at approximation accuracy.
							ref := quantify.ExactPositive(exact, q)
							if d := probsMaxDiff(got, ref, tc.ds.N()); d > 0.2 {
								t.Fatalf("k=%d q=%v: approx probs off exact by %g", k, q, d)
							}
						} else {
							want, err := mono.QueryProbs(q, 0)
							if err != nil {
								t.Fatal(err)
							}
							if d := probsMaxDiff(got, want, tc.ds.N()); d > 1e-12 {
								t.Fatalf("k=%d q=%v: probs diverge by %g", k, q, d)
							}
						}
					}
					if tc.caps.Has(CapExpected) {
						wi, wd, err1 := mono.QueryExpected(q)
						gi, gd, err2 := sx.QueryExpected(q)
						if err1 != nil || err2 != nil {
							t.Fatalf("k=%d: expected errs %v / %v", k, err1, err2)
						}
						if wi != gi || wd != gd {
							t.Fatalf("k=%d q=%v: expected (%d,%v), want (%d,%v)", k, q, gi, gd, wi, wd)
						}
					}
				}
			}
		})
	}
}

// TestShardedDegenerate covers n < k (forced empty shards) and an
// all-coincident cluster (empty shards under a grid cut): answers must
// still match the monolithic backend bit-for-bit.
func TestShardedDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(0xdead))
	small := FromDiscrete(constructions.RandomDiscrete(rng, 3, 2, 20, 1.0, 1))
	mono, err := Build(BackendBrute, small, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qs := randQueries(rng, 32, 20)
	for _, k := range []int{4, 7, 9} {
		for _, split := range []Split{SplitKDMedian, SplitGrid} {
			sx, err := NewSharded(BackendBrute, BuildOptions{}, ShardOptions{Shards: k, Split: split})
			if err != nil {
				t.Fatal(err)
			}
			if err := sx.Build(small); err != nil {
				t.Fatalf("k=%d split=%d: %v", k, split, err)
			}
			empties := 0
			for _, sz := range sx.shardSizes() {
				if sz == 0 {
					empties++
				}
			}
			if empties == 0 {
				t.Fatalf("k=%d > n=3: expected empty shards, sizes %v", k, sx.shardSizes())
			}
			for _, q := range qs {
				want, _ := mono.QueryNonzero(q)
				got, err := sx.QueryNonzero(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
					t.Fatalf("k=%d: nonzero %v, want %v", k, got, want)
				}
				wp, _ := mono.QueryProbs(q, 0)
				gp, err := sx.QueryProbs(q, 0)
				if err != nil {
					t.Fatal(err)
				}
				if d := probsMaxDiff(gp, wp, small.N()); d > 1e-12 {
					t.Fatalf("k=%d: probs diverge by %g", k, d)
				}
			}
		}
	}

	// All centroids coincident: the grid cut piles everything into one
	// cell, leaving k−1 empty shards.
	locs := []geom.Point{geom.Pt(5, 5)}
	coincident := make([]*uncertain.Discrete, 4)
	for i := range coincident {
		coincident[i] = uncertain.UniformDiscrete(locs)
	}
	ds := FromDiscrete(coincident)
	sx, err := NewSharded(BackendBrute, BuildOptions{}, ShardOptions{Shards: 4, Split: SplitGrid})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Build(ds); err != nil {
		t.Fatal(err)
	}
	monoC, err := Build(BackendBrute, ds, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		want, _ := monoC.QueryNonzero(q)
		got, err := sx.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
			t.Fatalf("coincident: nonzero %v, want %v", got, want)
		}
	}
}

// TestShardedUnsupported verifies the capability contract survives
// sharding: a kind no shard backend supports returns ErrUnsupported.
func TestShardedUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := FromDisks(constructions.RandomDisks(rng, 8, 20, 0.5, 1.5))
	sx := shardedOver(t, BackendTwoStageDisks, ds, 3, BuildOptions{})
	if _, err := sx.QueryProbs(geom.Pt(1, 1), 0); !errors.Is(err, ErrUnsupported) {
		t.Errorf("QueryProbs err = %v, want ErrUnsupported", err)
	}
	if _, _, err := sx.QueryExpected(geom.Pt(1, 1)); !errors.Is(err, ErrUnsupported) {
		t.Errorf("QueryExpected err = %v, want ErrUnsupported", err)
	}
}

// TestShardedInvalid exercises constructor validation.
func TestShardedInvalid(t *testing.T) {
	if _, err := NewSharded(Backend("nope"), BuildOptions{}, ShardOptions{Shards: 2}); err == nil {
		t.Error("NewSharded accepted an unknown backend")
	}
	if _, err := NewSharded(BackendBrute, BuildOptions{}, ShardOptions{}); err == nil {
		t.Error("NewSharded accepted Shards = 0")
	}
	sx, err := NewSharded(BackendBrute, BuildOptions{}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Build(&Dataset{}); err == nil {
		t.Error("Build accepted an empty dataset")
	}
}

// TestShardedContinuousProbs checks the approximate continuous merge
// path: sharded Monte Carlo over truncated Gaussians must stay close to
// the monolithic Monte-Carlo estimate (both are ε-accurate estimates of
// the same true vector).
func TestShardedContinuousProbs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := make([]uncertain.Point, 16)
	for i := range pts {
		d := geom.DiskAt(rng.Float64()*60, rng.Float64()*60, 1+rng.Float64()*2)
		pts[i] = uncertain.NewTruncGauss(d, d.R/2)
	}
	ds := FromPoints(pts)
	bopt := BuildOptions{MCRounds: 256}
	mono, err := Build(BackendMonteCarlo, ds, bopt)
	if err != nil {
		t.Fatal(err)
	}
	sx := shardedOver(t, BackendMonteCarlo, ds, 4, bopt)
	qs := randQueries(rng, 16, 60)
	for _, q := range qs {
		want, err := mono.QueryProbs(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sx.QueryProbs(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d := probsMaxDiff(got, want, len(pts)); d > 0.25 {
			t.Fatalf("q=%v: sharded continuous probs off monolithic MC by %g", q, d)
		}
	}
}

// TestShardedThroughEngine verifies ShardedIndex composes with the
// batch and cache machinery exactly like any other Index.
func TestShardedThroughEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 40, 3, 60, 1.0, 1))
	sx := shardedOver(t, BackendBrute, ds, 4, BuildOptions{})
	eng := NewEngine(sx, Options{Workers: 4, CacheSize: 64})
	qs := randQueries(rng, 32, 60)
	single := make([][]int, len(qs))
	for i, q := range qs {
		out, err := eng.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		single[i] = out
	}
	batched, err := eng.BatchNonzero(qs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, batched) {
		t.Fatal("sharded batch diverges from single queries")
	}
	if hits, _ := eng.CacheStats(); hits == 0 {
		t.Fatal("repeated sharded queries did not hit the cache")
	}
}

// tieDiscrete draws n discrete points on the integer grid [0,side]²
// with 1, 2 or 4 equally weighted locations — dyadic weights, so every
// cdf sum and survival factor of Eq. (2) is exact in floating point and
// the support of π is decidable without a noise floor. A fifth of the
// points duplicate an earlier point outright and another fifth reuse one
// of an earlier point's locations, so coincident locations are common.
func tieDiscrete(rng *rand.Rand, n, side int) []*uncertain.Discrete {
	gridPt := func() geom.Point {
		return geom.Pt(float64(rng.Intn(side+1)), float64(rng.Intn(side+1)))
	}
	pts := make([]*uncertain.Discrete, 0, n)
	for len(pts) < n {
		k := 1 << rng.Intn(3)
		locs := make([]geom.Point, k)
		for a := range locs {
			locs[a] = gridPt()
		}
		if len(pts) > 0 {
			prev := pts[rng.Intn(len(pts))]
			switch rng.Intn(5) {
			case 0:
				locs = append([]geom.Point(nil), prev.Locs...)
			case 1:
				locs[0] = prev.Locs[rng.Intn(len(prev.Locs))]
			}
		}
		pts = append(pts, uncertain.UniformDiscrete(locs))
	}
	return pts
}

// TestShardedProbsExact: the sharded discrete π merge (the fused
// Lemma 2.1 scan plus Eq. (2) over the competitors with δ_j ≤ m1)
// reproduces quantify's exact Eq. (2) sweep over all n points — the
// identical support set and every value within 1e-12 — and top-k is
// topKSelect of that same vector. The data is built to hit the ties the
// reduction must get right: duplicated points, locations shared across
// shard boundaries, and integer-grid queries where a competitor's δ_j
// equals m1 exactly. It runs on the built fleet, with a non-empty
// insert buffer, and after deletes.
func TestShardedProbsExact(t *testing.T) {
	const side = 12
	var qs []geom.Point
	for x := -1; x <= side+1; x++ {
		for y := -1; y <= side+1; y++ {
			qs = append(qs, geom.Pt(float64(x), float64(y)))
		}
	}
	for _, k := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x9e2 + int64(k)))
			ref := tieDiscrete(rng, 48, side)
			ix, err := BuildSharded(BackendBrute, FromDiscrete(slices.Clone(ref)), BuildOptions{},
				ShardOptions{Shards: k, InsertBuffer: true, FlushThreshold: 64})
			if err != nil {
				t.Fatal(err)
			}
			sx := ix.(*ShardedIndex)
			if !sharesLocationAcrossShards(sx, ref) {
				t.Fatal("no location is shared across a shard boundary: the data misses the tie case")
			}
			check := func(phase string) {
				t.Helper()
				if ties := exactM1Ties(ref, qs); ties == 0 {
					t.Fatalf("%s: no query has a competitor with δ_j = m1", phase)
				}
				for _, q := range qs {
					got, err := sx.QueryProbs(q, 0)
					if err != nil {
						t.Fatal(err)
					}
					want := quantify.ExactAt(ref, q)
					var support []int
					for i, p := range want {
						if p > 0 {
							support = append(support, i)
						}
					}
					var gotSupport []int
					for _, pr := range got {
						gotSupport = append(gotSupport, pr.I)
						if d := math.Abs(pr.P - want[pr.I]); d > 1e-12 {
							t.Fatalf("%s q=%v: π_%d = %v, want %v", phase, q, pr.I, pr.P, want[pr.I])
						}
					}
					if !slices.Equal(gotSupport, support) {
						t.Fatalf("%s q=%v: support %v, want %v", phase, q, gotSupport, support)
					}
					for _, kk := range []int{1, 3} {
						top, err := sx.QueryTopK(q, kk, 0)
						if err != nil {
							t.Fatal(err)
						}
						if want := topKSelect(got, kk); !reflect.DeepEqual(top, want) {
							t.Fatalf("%s q=%v: top-%d %v, want %v", phase, q, kk, top, want)
						}
					}
				}
			}
			check("built")

			// Inserts land in the insert buffer (below its flush threshold):
			// duplicates of live points and fresh grid points.
			extra := tieDiscrete(rng, 6, side)
			extra = append(extra, uncertain.UniformDiscrete(append([]geom.Point(nil), ref[0].Locs...)))
			for _, p := range extra {
				if _, err := sx.Insert(Item{Point: p}); err != nil {
					t.Fatal(err)
				}
				ref = append(ref, p)
			}
			if buffered, _, _ := sx.BufferStats(); buffered == 0 {
				t.Fatal("insert buffer is empty after inserts")
			}
			check("buffered")

			for _, i := range []int{5, 0, 30, 50} { // 50: a buffered insert
				if _, err := sx.Delete(i); err != nil {
					t.Fatal(err)
				}
				ref = slices.Delete(ref, i, i+1)
			}
			check("deleted")
		})
	}
}

// sharesLocationAcrossShards reports whether two points in different
// built parts have a location in common.
func sharesLocationAcrossShards(sx *ShardedIndex, pts []*uncertain.Discrete) bool {
	owner := make(map[geom.Point]*shard)
	shared := false
	sx.queryParts(func(s *shard) {
		for _, i := range s.ids {
			for _, l := range pts[i].Locs {
				if o, ok := owner[l]; ok && o != s {
					shared = true
				}
				owner[l] = s
			}
		}
	})
	return shared
}

// exactM1Ties counts the queries at which some point other than the
// minimizer of Δ has δ_j = m1 = min_j Δ_j exactly.
func exactM1Ties(pts []*uncertain.Discrete, qs []geom.Point) int {
	ties := 0
	for _, q := range qs {
		m1, arg1 := math.Inf(1), -1
		for i, p := range pts {
			if d := p.MaxDist(q); d < m1 {
				m1, arg1 = d, i
			}
		}
		for j, p := range pts {
			if j != arg1 && p.MinDist(q) == m1 {
				ties++
				break
			}
		}
	}
	return ties
}
