package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"unn/internal/constructions"
	"unn/internal/geom"
	"unn/internal/lmetric"
	"unn/internal/uncertain"
)

// taskFunc adapts a func to runIndexed's task interface.
type taskFunc func(int) error

func (f taskFunc) run(i int) error { return f(i) }

// TestBatchErrorLowestIndex: the batch worker pool must report the
// lowest failing index whatever the worker scheduling — the same index
// the sequential path would report. Task 50 fails instantly while task
// 11 fails slowly, so a worker races the higher index into the error
// slot first; the report must still name 11.
func TestBatchErrorLowestIndex(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		fi, err := runIndexed(8, 64, taskFunc(func(i int) error {
			switch i {
			case 11:
				time.Sleep(200 * time.Microsecond)
				return fmt.Errorf("boom %d", i)
			case 50:
				return fmt.Errorf("boom %d", i)
			}
			return nil
		}))
		if err == nil {
			t.Fatalf("trial %d: pool with failing tasks returned nil error", trial)
		}
		if fi != 11 || err.Error() != "boom 11" {
			t.Fatalf("trial %d: failure (%d, %q), want (11, %q)", trial, fi, err, "boom 11")
		}
	}
}

// TestBatchErrorStopsFeeding: once an error is recorded, the feeder
// stops handing out work — a failing batch must not evaluate every
// remaining query.
func TestBatchErrorStopsFeeding(t *testing.T) {
	const n = 10_000
	var ran atomic.Int64
	_, err := runIndexed(4, n, taskFunc(func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		return nil
	}))
	if err == nil {
		t.Fatal("expected an error")
	}
	if got := ran.Load(); got == n {
		t.Fatalf("all %d tasks ran despite the early error", n)
	}
}

// TestCacheEpsCanonicalKey: every eps ≤ 0 means "backend default", so
// all such queries must share one cache entry — a default-eps query
// hits after a put keyed by eps = -1.
func TestCacheEpsCanonicalKey(t *testing.T) {
	rng := rand.New(rand.NewSource(0xe5))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 10, 2, 20, 1.0, 1))
	ix, err := Build(BackendBrute, ds, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ix, Options{Workers: 1, CacheSize: 16})
	q := geom.Pt(10, 10)
	if _, err := eng.QueryProbs(q, -1); err != nil { // miss, put
		t.Fatal(err)
	}
	if _, err := eng.QueryProbs(q, 0); err != nil { // must hit
		t.Fatal(err)
	}
	if _, err := eng.QueryProbs(q, -0.5); err != nil { // must hit
		t.Fatal(err)
	}
	hits, misses := eng.CacheStats()
	if hits != 2 || misses != 1 {
		t.Fatalf("eps ≤ 0 queries: %d hits / %d misses, want 2/1", hits, misses)
	}
	// A positive eps is a real accuracy request and keys separately.
	if _, err := eng.QueryProbs(q, 0.1); err != nil {
		t.Fatal(err)
	}
	if hits, misses = eng.CacheStats(); hits != 2 || misses != 2 {
		t.Fatalf("after eps = 0.1: %d hits / %d misses, want 2/2", hits, misses)
	}
}

// TestShardedExpectedTieBreak pins the merge planner's tie-break: two
// shards whose local winners have exactly equal expected distance must
// yield the smaller global index, matching the monolithic
// first-strict-min scan. The nearer shard (by bounding-box lower bound)
// holds the LARGER global index, so the planner must overturn its
// provisional winner on the d == bestD comparison.
func TestShardedExpectedTieBreak(t *testing.T) {
	p0 := uncertain.UniformDiscrete([]geom.Point{geom.Pt(0, 0)})
	p1 := uncertain.UniformDiscrete([]geom.Point{geom.Pt(1.5, 0), geom.Pt(2.5, 0)})
	ds := FromDiscrete([]*uncertain.Discrete{p0, p1})
	q := geom.Pt(1, 0)
	// E[d(q, p0)] = 1 exactly; E[d(q, p1)] = (0.5 + 1.5)/2 = 1 exactly;
	// p1's bbox is nearer to q (lb 0.5 < 1), so its shard is scanned
	// first.
	mono, err := Build(BackendBrute, ds, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wi, wd, err := mono.QueryExpected(q)
	if err != nil {
		t.Fatal(err)
	}
	if wi != 0 || wd != 1 {
		t.Fatalf("monolithic winner (%d, %v), want (0, 1)", wi, wd)
	}
	sx := shardedOver(t, BackendBrute, ds, 2, BuildOptions{})
	if sizes := sx.(*ShardedIndex).shardSizes(); len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 1 {
		t.Fatalf("partition %v, want the two points in separate shards", sizes)
	}
	gi, gd, err := sx.QueryExpected(q)
	if err != nil {
		t.Fatal(err)
	}
	if gi != wi || gd != wd {
		t.Fatalf("sharded winner (%d, %v), want (%d, %v)", gi, gd, wi, wd)
	}
}

// TestShardedSquaresSurvival: the continuous-probs merge helpers used
// to dereference ds.Points, which a squares-only dataset (FromSquares)
// does not have — survival and the cross-survival integral panicked.
// They now derive the distance cdf from the square region itself.
func TestShardedSquaresSurvival(t *testing.T) {
	squares := []lmetric.Square{
		{C: geom.Pt(0, 0), R: 1},
		{C: geom.Pt(10, 0), R: 1},
		{C: geom.Pt(0, 10), R: 2},
		{C: geom.Pt(10, 10), R: 0}, // zero-area point mass
	}
	ds := FromSquares(squares)
	sx, err := NewSharded(BackendTwoStageLinf, BuildOptions{}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Build(ds); err != nil {
		t.Fatal(err)
	}
	q := geom.Pt(1, 1)
	ordered := sx.appendParts(q, nil)
	for _, bs := range ordered {
		for _, r := range []float64{0, 0.5, 2, 20} {
			if v := sx.survival(q, r, bs, -1); v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("survival(r=%v) = %v out of [0,1]", r, v)
			}
		}
	}
	for gi := range squares {
		if v := sx.conditionalCrossSurvival(q, gi, ordered, 0); v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("conditionalCrossSurvival(%d) = %v out of [0,1]", gi, v)
		}
	}
	// No squares backend quantifies, so the public path still reports
	// ErrUnsupported — but it must get there without panicking.
	if _, err := sx.QueryProbs(q, 0); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("QueryProbs err = %v, want ErrUnsupported", err)
	}
}

// TestSquareDistCDF checks the derived uniform-on-square distance cdf:
// boundary behavior, monotonicity, and a closed-form interior value
// under both the L∞ and the (rotated) L1 metric.
func TestSquareDistCDF(t *testing.T) {
	s := lmetric.Square{C: geom.Pt(0, 0), R: 1}
	for _, m := range []qmetric{metricLinf, metricL1} {
		q := geom.Pt(0, 0)
		if got := squareDistCDF(s, m, q, 0.5); math.Abs(got-0.25) > 1e-12 {
			t.Fatalf("metric %d: cdf(0.5) = %v, want 0.25", m, got)
		}
		if got := squareDistCDF(s, m, q, 1); got != 1 {
			t.Fatalf("metric %d: cdf(Δ) = %v, want 1", m, got)
		}
		prev := -1.0
		for r := 0.0; r <= 2; r += 0.05 {
			v := squareDistCDF(s, m, q, r)
			if v < prev {
				t.Fatalf("metric %d: cdf not monotone at r=%v", m, r)
			}
			prev = v
		}
	}
	// Far query: zero below δ, one at Δ.
	q := geom.Pt(5, 0)
	if got := squareDistCDF(s, metricLinf, q, 3.9); got != 0 {
		t.Fatalf("cdf below δ = %v, want 0", got)
	}
	if got := squareDistCDF(s, metricLinf, q, 6); got != 1 {
		t.Fatalf("cdf at Δ = %v, want 1", got)
	}
	// Point mass: step function at its distance.
	pm := lmetric.Square{C: geom.Pt(2, 0), R: 0}
	if got := squareDistCDF(pm, metricLinf, geom.Pt(0, 0), 1.9); got != 0 {
		t.Fatalf("point-mass cdf below distance = %v, want 0", got)
	}
	if got := squareDistCDF(pm, metricLinf, geom.Pt(0, 0), 2); got != 1 {
		t.Fatalf("point-mass cdf at distance = %v, want 1", got)
	}
}
