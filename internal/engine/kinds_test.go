package engine

import (
	"math/rand"
	"strings"
	"testing"

	"unn/internal/constructions"
	"unn/internal/geom"
)

// TestCacheKeyKindSeparation is the cache-key regression gate: requests
// of distinct kinds, or of the same kind with distinct k, must never
// share a cache cell, while requests the registry declares equivalent
// (every eps ≤ 0, unused knobs) must.
func TestCacheKeyKindSeparation(t *testing.T) {
	c := newCache(64, 0.5)
	q := geom.Pt(3.14, 2.72)

	// One key per (kind, k) combination actually used by the registry:
	// all must be pairwise distinct.
	keys := map[cacheKey]string{}
	for _, kc := range []struct {
		name string
		kind uint8
		eps  float64
		k    int
	}{
		{"nonzero", kindNonzero, 0, 0},
		{"probs", kindProbs, 0, 0},
		{"probs eps=0.1", kindProbs, 0.1, 0},
		{"expected", kindExpected, 0, 0},
		{"topk k=1", kindTopK, 0, 1},
		{"topk k=2", kindTopK, 0, 2},
		{"topk k=2 eps=0.1", kindTopK, 0.1, 2},
	} {
		k := c.key(kc.kind, q, kc.eps, kc.k)
		if prev, dup := keys[k]; dup {
			t.Fatalf("%q and %q share cache key %+v", prev, kc.name, k)
		}
		keys[k] = kc.name
	}

	// Canonicalization: every "use the backend default" eps collapses to
	// one key, as do negative k values.
	if c.key(kindProbs, q, 0, 0) != c.key(kindProbs, q, -1, 0) {
		t.Fatal("eps=0 and eps=-1 (both backend-default) got distinct keys")
	}
	if c.key(kindTopK, q, 0, -3) != c.key(kindTopK, q, 0, 0) {
		t.Fatal("negative k not canonicalized")
	}
	// Same kind, same knobs, nearby point inside one quantum cell: shared.
	if c.key(kindTopK, q, 0, 2) != c.key(kindTopK, geom.Pt(3.2, 2.7), 0, 2) {
		t.Fatal("same-cell queries got distinct keys")
	}

	// End to end: a k=3 answer cached on the engine must not answer a
	// k=2 request (covered value-wise in TestEngineTopK; here the miss
	// counters prove the cells are distinct).
	rng := rand.New(rand.NewSource(0x5e9))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 12, 2, 20, 1.0, 1))
	ix, err := Build(BackendBrute, ds, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ix, Options{CacheSize: 32})
	qp := geom.Pt(10, 10)
	if _, err := eng.QueryTopK(qp, 3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryProbs(qp, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryTopK(qp, 2, 0); err != nil {
		t.Fatal(err)
	}
	if hits, misses := eng.CacheStats(); hits != 0 || misses != 3 {
		t.Fatalf("hits=%d misses=%d after three distinct-cell queries, want 0/3", hits, misses)
	}
	if _, err := eng.QueryTopK(qp, 3, 0); err != nil {
		t.Fatal(err)
	}
	if hits, _ := eng.CacheStats(); hits != 1 {
		t.Fatalf("repeat (kind,k) query missed the cache")
	}
}

// TestShardKindCounters: the per-shard per-kind query counters tick in
// the right registry slot, cover every shard the merge scans, and are
// absent for unsharded backends.
func TestShardKindCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5c0))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 36, 3, 40, 1.0, 1))
	ix, err := BuildSharded(BackendBrute, ds, BuildOptions{}, ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ix, Options{})
	qs := randQueries(rng, 8, 44)
	for _, q := range qs {
		if _, err := eng.QueryNonzero(q); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.QueryProbs(q, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.QueryTopK(q, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if len(st.ShardQueries) != 3 {
		t.Fatalf("ShardQueries has %d rows, want 3: %+v", len(st.ShardQueries), st.ShardQueries)
	}
	var sum [NumKinds]uint64
	for i, sc := range st.ShardQueries {
		if sc.Shard != i {
			t.Fatalf("row %d reports shard %d", i, sc.Shard)
		}
		for s := 0; s < NumKinds; s++ {
			sum[s] += sc.Counts[s]
		}
	}
	// NN≠0 and the discrete π merge (with its top-k ranking) both run
	// the Lemma 2.1 scan, pruning by bounding-box distance, so each
	// visits at least one and at most all shards per query — and on this
	// spread-out dataset the π scan prunes some shard for some query.
	// Expected-distance was never queried: its slot stays zero.
	all := uint64(3 * len(qs))
	for _, s := range []int{slotNonzero, slotProbs, slotTopK} {
		if sum[s] < uint64(len(qs)) || sum[s] > all {
			t.Fatalf("%s visits = %d, want in [%d, %d]", kindTable[s].name, sum[s], len(qs), all)
		}
	}
	if sum[slotProbs] == all || sum[slotTopK] == all {
		t.Fatalf("probs/topk visits = %d/%d: the π scan pruned no shard", sum[slotProbs], sum[slotTopK])
	}
	if sum[slotExpected] != 0 {
		t.Fatalf("expected visits = %d without any expected query", sum[slotExpected])
	}

	// Unsharded engines report no per-shard rows.
	mono, err := Build(BackendBrute, ds, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	me := NewEngine(mono, Options{})
	if _, err := me.QueryNonzero(qs[0]); err != nil {
		t.Fatal(err)
	}
	if sq := me.Stats().ShardQueries; sq != nil {
		t.Fatalf("unsharded engine reports shard counters: %+v", sq)
	}
}

// TestExplainKinds: every execution layer's Explain names the backend
// serving each registered kind — including the registry-added top-k —
// for planned, auto-composite ("routed"), sharded and plain
// configurations.
func TestExplainKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(0xe19))
	discrete := FromDiscrete(constructions.RandomDiscrete(rng, 30, 3, 40, 1.0, 1))
	disks := FromDisks(constructions.RandomDisks(rng, 20, 40, 0.5, 2.0))

	cases := []struct {
		name  string
		build func(t *testing.T) *Engine
		kinds []string
	}{
		{"plain", func(t *testing.T) *Engine {
			ix, err := Build(BackendBrute, discrete, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}, []string{"nonzero", "probs", "expected", "topk"}},
		{"routed", func(t *testing.T) *Engine {
			ix, err := BuildAuto(disks, BuildOptions{MCRounds: 16}, ShardOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}, []string{"nonzero", "probs", "topk"}},
		{"sharded", func(t *testing.T) *Engine {
			ix, err := BuildSharded(BackendBrute, discrete, BuildOptions{}, ShardOptions{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}, nil}, // sharded Explain lists per-shard composition, not kinds
		{"planned", func(t *testing.T) *Engine {
			ix, _, err := BuildPlanned(discrete, BuildOptions{}, ShardOptions{},
				PlannerOptions{Mix: Workload{Nonzero: 1, Probs: 1, Expected: 1, TopK: 1}})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}, []string{"nonzero", "probs", "expected", "topk"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := tc.build(t)
			expl := eng.Explain()
			for _, kind := range tc.kinds {
				if !strings.Contains(expl, kind) {
					t.Fatalf("Explain lacks %q:\n%s", kind, expl)
				}
			}
			// Each configuration also answers a top-k query through the
			// surface it explains (except nonzero-only fleets).
			if eng.Capabilities().Has(CapTopK) {
				if _, err := eng.QueryTopK(geom.Pt(20, 20), 2, 0); err != nil {
					t.Fatalf("QueryTopK through %s: %v", tc.name, err)
				}
				// Sharded fleets have no single per-kind backend (each
				// shard plans its own); the resolution applies elsewhere.
				if tc.name != "sharded" {
					if b, ok := eng.kindBackend(CapTopK); !ok || b == "" {
						t.Fatalf("kindBackend(CapTopK) = %q, %v", b, ok)
					}
				}
			}
			if tc.name == "planned" && !strings.Contains(expl, "topk=1.00") {
				t.Fatalf("planned Explain lacks the topk mix share:\n%s", expl)
			}
		})
	}
}
