package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"unn/internal/constructions"
	"unn/internal/geom"
	"unn/internal/lmetric"
	"unn/internal/uncertain"
)

// dynamicOver builds a mutable sharded index over ds (t.Fatal on error).
func dynamicOver(t *testing.T, b Backend, ds *Dataset, sopt ShardOptions) *ShardedIndex {
	t.Helper()
	sx, err := NewSharded(b, BuildOptions{}, sopt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Build(ds); err != nil {
		t.Fatal(err)
	}
	return sx
}

// checkDynamicParity compares the dynamic index against a freshly built
// monolithic backend over the same surviving items: bit-identical NN≠0
// and expected-distance answers, π within 1e-12 (the exact-merge
// contract of the static sharded layer).
func checkDynamicParity(t *testing.T, sx *ShardedIndex, live []*uncertain.Discrete, qs []geom.Point, tag string) {
	t.Helper()
	mono, err := Build(BackendBrute, FromDiscrete(live), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		want, _ := mono.QueryNonzero(q)
		got, err := sx.QueryNonzero(q)
		if err != nil {
			t.Fatalf("%s: nonzero: %v", tag, err)
		}
		if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
			t.Fatalf("%s q=%v: nonzero %v, want %v", tag, q, got, want)
		}
		wp, _ := mono.QueryProbs(q, 0)
		gp, err := sx.QueryProbs(q, 0)
		if err != nil {
			t.Fatalf("%s: probs: %v", tag, err)
		}
		if d := probsMaxDiff(gp, wp, len(live)); d > 1e-12 {
			t.Fatalf("%s q=%v: probs diverge by %g", tag, q, d)
		}
		wi, wd, _ := mono.QueryExpected(q)
		gi, gd, err := sx.QueryExpected(q)
		if err != nil {
			t.Fatalf("%s: expected: %v", tag, err)
		}
		if wi != gi || wd != gd {
			t.Fatalf("%s q=%v: expected (%d,%v), want (%d,%v)", tag, q, gi, gd, wi, wd)
		}
	}
}

// checkSizeInvariant asserts the rebalancing bound: every non-empty
// shard holds at most 2× the target.
func checkSizeInvariant(t *testing.T, sx *ShardedIndex, tag string) {
	t.Helper()
	for _, sz := range sx.shardSizes() {
		if sz > 2*sx.target {
			t.Fatalf("%s: shard of %d items exceeds 2×target=%d (sizes %v)",
				tag, sz, 2*sx.target, sx.shardSizes())
		}
	}
}

// TestDynamicParityRandomMutations is the dynamic layer's core
// contract: after ANY interleaving of Insert/Delete (and the splits and
// merges they trigger), the index answers every query kind like a
// freshly built monolithic backend over the surviving items — for every
// Split mode.
func TestDynamicParityRandomMutations(t *testing.T) {
	for split, name := range map[Split]string{SplitKDMedian: "kdmedian", SplitGrid: "grid"} {
		split := split
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xd1a0 ^ int64(split)))
			const side = 80.0
			pool := constructions.RandomDiscrete(rng, 200, 3, side, 2.0, 1)
			live := append([]*uncertain.Discrete(nil), pool[:24]...)
			next := 24
			sx := dynamicOver(t, BackendBrute, FromDiscrete(append([]*uncertain.Discrete(nil), live...)),
				ShardOptions{Shards: 4, Split: split})
			qs := randQueries(rng, 8, side)
			for step := 0; step < 70; step++ {
				if (rng.Intn(2) == 0 && next < len(pool)) || len(live) <= 2 {
					p := pool[next]
					next++
					gi, err := sx.Insert(Item{Point: p})
					if err != nil {
						t.Fatalf("step %d: insert: %v", step, err)
					}
					if gi != len(live) {
						t.Fatalf("step %d: insert returned index %d, want %d", step, gi, len(live))
					}
					live = append(live, p)
				} else {
					i := rng.Intn(len(live))
					if _, err := sx.Delete(i); err != nil {
						t.Fatalf("step %d: delete(%d): %v", step, i, err)
					}
					live = append(live[:i], live[i+1:]...)
				}
				if sx.Len() != len(live) {
					t.Fatalf("step %d: Len=%d, want %d", step, sx.Len(), len(live))
				}
				if sx.Epoch() != uint64(step+1) {
					t.Fatalf("step %d: epoch=%d", step, sx.Epoch())
				}
				checkSizeInvariant(t, sx, name)
				checkDynamicParity(t, sx, live, qs, name)
			}
		})
	}
}

// TestDynamicGrowShrink drives the target tracking: the per-shard size
// target follows ⌈n/k⌉ of the live dataset with hysteresis, so a 15×
// growth keeps the shard count near the configured k (sizes grow with
// the data) instead of fragmenting into 15× more shards, and shrinking
// back ratchets the target — and the sizes — down again.
func TestDynamicGrowShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(0x96aa))
	const side = 120.0
	pool := constructions.RandomDiscrete(rng, 240, 2, side, 1.5, 1)
	sx := dynamicOver(t, BackendBrute, FromDiscrete(append([]*uncertain.Discrete(nil), pool[:16]...)),
		ShardOptions{Shards: 4})
	base := sx.Shards()
	baseTarget := sx.target
	for _, p := range pool[16:] {
		if _, err := sx.Insert(Item{Point: p}); err != nil {
			t.Fatal(err)
		}
	}
	checkSizeInvariant(t, sx, "after growth")
	if sx.target <= baseTarget {
		t.Fatalf("growing 16 → 240 items left the per-shard target at %d (was %d)", sx.target, baseTarget)
	}
	// ⌈240/4⌉ = 60; hysteresis holds the tracked target within ±50%.
	if sx.target < 40 || sx.target > 90 {
		t.Fatalf("target %d after growth, want ≈ 60 (hysteresis band [40, 90])", sx.target)
	}
	grown := sx.Shards()
	if grown < base || grown > 3*base {
		t.Fatalf("15× growth moved shard count %d → %d, want near the configured %d", base, grown, base)
	}
	for sx.Len() > 8 {
		if _, err := sx.Delete(rng.Intn(sx.Len())); err != nil {
			t.Fatal(err)
		}
	}
	checkSizeInvariant(t, sx, "after shrink")
	if sx.target > 4 {
		t.Fatalf("shrinking to 8 items left the per-shard target at %d, want ≤ 4", sx.target)
	}
	if got := sx.Shards(); got < 2 {
		t.Fatalf("8 items under target %d collapsed to %d shards", sx.target, got)
	}
}

// TestDynamicSquares mutates a squares dataset (the lmetric L∞ backend)
// and checks NN≠0 parity against the monolithic structure.
func TestDynamicSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(0x59a))
	mk := func(n int) []lmetric.Square {
		sq := make([]lmetric.Square, n)
		for i := range sq {
			sq[i] = lmetric.Square{C: geom.Pt(rng.Float64()*40, rng.Float64()*40), R: 0.3 + rng.Float64()}
		}
		return sq
	}
	live := mk(20)
	sx := dynamicOver(t, BackendTwoStageLinf, FromSquares(append([]lmetric.Square(nil), live...)),
		ShardOptions{Shards: 3})
	for _, s := range mk(15) {
		s := s
		if _, err := sx.Insert(Item{Square: &s}); err != nil {
			t.Fatal(err)
		}
		live = append(live, s)
	}
	for i := 0; i < 10; i++ {
		di := rng.Intn(len(live))
		if _, err := sx.Delete(di); err != nil {
			t.Fatal(err)
		}
		live = append(live[:di], live[di+1:]...)
	}
	mono, err := Build(BackendTwoStageLinf, FromSquares(live), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range randQueries(rng, 24, 40) {
		want, _ := mono.QueryNonzero(q)
		got, err := sx.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
			t.Fatalf("q=%v: nonzero %v, want %v", q, got, want)
		}
	}
}

// TestDynamicValidation exercises the mutation error paths.
func TestDynamicValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 6, 2, 20, 1.0, 1))
	sx := dynamicOver(t, BackendBrute, ds, ShardOptions{Shards: 2})
	if _, err := sx.Insert(Item{}); err == nil {
		t.Error("Insert accepted an empty Item")
	}
	if _, err := sx.Insert(Item{Point: uncertain.UniformDisk{D: geom.DiskAt(1, 1, 1)}}); err == nil {
		t.Error("Insert accepted a continuous point into an all-discrete dataset")
	}
	if _, err := sx.Delete(-1); err == nil {
		t.Error("Delete accepted a negative index")
	}
	if _, err := sx.Delete(6); err == nil {
		t.Error("Delete accepted an out-of-range index")
	}
	for sx.Len() > 1 {
		if _, err := sx.Delete(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sx.Delete(0); err == nil {
		t.Error("Delete removed the last item")
	}

	// Monolithic backends refuse mutations with ErrImmutable.
	mono, err := Build(BackendBrute, ds, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(mono, Options{})
	if eng.Mutable() {
		t.Error("monolithic brute reports Mutable")
	}
	if _, err := eng.Insert(Item{Point: ds.Discrete[0]}); !errors.Is(err, ErrImmutable) {
		t.Errorf("Insert on monolithic backend: err=%v, want ErrImmutable", err)
	}
	if err := eng.Delete(0); !errors.Is(err, ErrImmutable) {
		t.Errorf("Delete on monolithic backend: err=%v, want ErrImmutable", err)
	}
}

// TestDynamicCacheInvalidation: a mutation must flush the engine-level
// answer cache — and an in-flight pre-mutation answer must not be
// re-cached after the flush (the generation check).
func TestDynamicCacheInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(0xcace))
	pts := constructions.RandomDiscrete(rng, 12, 2, 30, 1.0, 1)
	sx := dynamicOver(t, BackendBrute, FromDiscrete(append([]*uncertain.Discrete(nil), pts...)),
		ShardOptions{Shards: 2})
	eng := NewEngine(sx, Options{Workers: 1, CacheSize: 32})
	q := geom.Pt(15, 15)
	before, err := eng.QueryNonzero(q)
	if err != nil {
		t.Fatal(err)
	}
	// A far-away insert that becomes the unique closest point to q.
	ins := uncertain.UniformDiscrete([]geom.Point{q})
	if _, err := eng.Insert(Item{Point: ins}); err != nil {
		t.Fatal(err)
	}
	after, err := eng.QueryNonzero(q)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, after) {
		t.Fatalf("cached answer survived a mutation: %v", after)
	}
	mono, err := Build(BackendBrute, FromDiscrete(append(append([]*uncertain.Discrete(nil), pts...), ins)), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mono.QueryNonzero(q)
	if !reflect.DeepEqual(want, after) {
		t.Fatalf("post-mutation answer %v, want %v", after, want)
	}

	// Stale-put: an answer computed under an old generation is dropped.
	c := eng.cache
	gen := c.generation()
	c.invalidate()
	c.put(kindNonzero, q, 0, 0, []int{99}, gen)
	if _, ok := c.get(kindNonzero, q, 0, 0); ok {
		t.Fatal("stale-generation put landed in the cache")
	}
}

// TestDynamicServeMutations drives mutations through the Serve stream:
// OpInsert/OpDelete interleave with queries on one channel, and the
// final index matches a fresh monolithic build over the survivors.
func TestDynamicServeMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5e7e))
	const side = 50.0
	pool := constructions.RandomDiscrete(rng, 40, 2, side, 1.0, 1)
	live := append([]*uncertain.Discrete(nil), pool[:16]...)
	sx := dynamicOver(t, BackendBrute, FromDiscrete(append([]*uncertain.Discrete(nil), live...)),
		ShardOptions{Shards: 3})
	eng := NewEngine(sx, Options{Workers: 3})
	ctx := context.Background()
	in := make(chan Query)
	out := eng.Serve(ctx, in)

	// Mutations are awaited one at a time (their relative order is the
	// test's ground truth); queries in between may complete out of order.
	await := func(q Query) Answer {
		in <- q
		for a := range out {
			if a.Seq == q.Seq {
				return a
			}
		}
		t.Fatalf("stream closed before answer %d", q.Seq)
		return Answer{}
	}
	seq := uint64(0)
	for i, p := range pool[16:28] {
		seq++
		a := await(Query{Seq: seq, Kind: OpInsert, Item: Item{Point: p}})
		if a.Err != nil {
			t.Fatalf("insert %d: %v", i, a.Err)
		}
		live = append(live, p)
		if a.N != len(live) {
			t.Fatalf("insert %d: N=%d, want %d", i, a.N, len(live))
		}
		seq++
		if a := await(Query{Seq: seq, Kind: CapNonzero, Q: randQueries(rng, 1, side)[0]}); a.Err != nil {
			t.Fatalf("query after insert: %v", a.Err)
		}
		if i%2 == 0 {
			di := rng.Intn(len(live))
			seq++
			if a := await(Query{Seq: seq, Kind: OpDelete, Del: di}); a.Err != nil {
				t.Fatalf("delete %d: %v", di, a.Err)
			}
			live = append(live[:di], live[di+1:]...)
		}
	}
	seq++
	if a := await(Query{Seq: seq, Kind: OpInsert}); a.Err == nil {
		t.Fatal("stream accepted an empty insert payload")
	}
	close(in)
	for range out {
	}
	checkDynamicParity(t, sx, live, randQueries(rng, 16, side), "serve")
}

// TestDynamicConcurrentQueries hammers the index with concurrent
// readers while mutating — the RWMutex epoch must keep every answer
// internally consistent (this test runs under -race in CI).
func TestDynamicConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc0c0))
	const side = 60.0
	pool := constructions.RandomDiscrete(rng, 160, 2, side, 1.0, 1)
	sx := dynamicOver(t, BackendBrute, FromDiscrete(append([]*uncertain.Discrete(nil), pool[:32]...)),
		ShardOptions{Shards: 4})
	eng := NewEngine(sx, Options{CacheSize: 64})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := geom.Pt(qrng.Float64()*side, qrng.Float64()*side)
				if _, err := eng.QueryNonzero(q); err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
				if _, _, err := eng.QueryExpected(q); err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
			}
		}(w)
	}
	for _, p := range pool[32:] {
		if _, err := eng.Insert(Item{Point: p}); err != nil {
			t.Error(err)
			break
		}
		if eng.Epoch()%3 == 0 {
			if err := eng.Delete(rng.Intn(sx.Len())); err != nil {
				t.Error(err)
				break
			}
		}
	}
	close(stop)
	wg.Wait()
}
