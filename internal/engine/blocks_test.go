package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"unn/internal/geom"
	"unn/internal/kernel"
	"unn/internal/lmetric"
	"unn/internal/quantify"
	"unn/internal/uncertain"
)

// blockKind is one dataset family TestBlockScanExact runs the block
// scan over: how to draw items, wrap them as a Dataset, and flatten
// them for the kernel.Flat.AppendNonzero oracle.
type blockKind struct {
	name    string
	backend Backend
	gen     func(rng *rand.Rand, n, side int) []Item
	dataset func(items []Item) *Dataset
	flat    func(items []Item) *kernel.Flat
}

func discreteOf(items []Item) []*uncertain.Discrete {
	out := make([]*uncertain.Discrete, len(items))
	for i, it := range items {
		out[i] = it.Point.(*uncertain.Discrete)
	}
	return out
}

func disksOf(items []Item) []geom.Disk {
	out := make([]geom.Disk, len(items))
	for i, it := range items {
		out[i] = it.Point.(uncertain.UniformDisk).D
	}
	return out
}

func squaresOf(items []Item) []lmetric.Square {
	out := make([]lmetric.Square, len(items))
	for i, it := range items {
		out[i] = *it.Square
	}
	return out
}

// gridRegions draws n integer-grid regions of integer radius 0–2; one in
// four copies an earlier region, so duplicates are common.
func gridRegions(rng *rand.Rand, n, side int) []geom.Disk {
	out := make([]geom.Disk, 0, n)
	for len(out) < n {
		d := geom.DiskAt(float64(rng.Intn(side+1)), float64(rng.Intn(side+1)), float64(rng.Intn(3)))
		if len(out) > 0 && rng.Intn(4) == 0 {
			d = out[rng.Intn(len(out))]
		}
		out = append(out, d)
	}
	return out
}

func squareKind(name string, b Backend, m kernel.Metric) blockKind {
	return blockKind{
		name:    name,
		backend: b,
		gen: func(rng *rand.Rand, n, side int) []Item {
			var items []Item
			for _, d := range gridRegions(rng, n, side) {
				items = append(items, Item{Square: &lmetric.Square{C: d.C, R: d.R}})
			}
			return items
		},
		dataset: func(items []Item) *Dataset { return FromSquares(squaresOf(items)) },
		flat:    func(items []Item) *kernel.Flat { return kernel.FromSquares(squaresOf(items), m) },
	}
}

var blockKinds = []blockKind{
	{
		name:    "discrete",
		backend: BackendBrute,
		gen: func(rng *rand.Rand, n, side int) []Item {
			var items []Item
			for _, p := range tieDiscrete(rng, n, side) {
				items = append(items, Item{Point: p})
			}
			return items
		},
		dataset: func(items []Item) *Dataset { return FromDiscrete(discreteOf(items)) },
		flat:    func(items []Item) *kernel.Flat { return kernel.FromDiscrete(discreteOf(items)) },
	},
	{
		name:    "disks",
		backend: BackendBrute,
		gen: func(rng *rand.Rand, n, side int) []Item {
			var items []Item
			for _, d := range gridRegions(rng, n, side) {
				items = append(items, Item{Point: uncertain.UniformDisk{D: d}})
			}
			return items
		},
		dataset: func(items []Item) *Dataset { return FromDisks(disksOf(items)) },
		flat:    func(items []Item) *kernel.Flat { return kernel.FromDisks(disksOf(items)) },
	},
	squareKind("squares-linf", BackendTwoStageLinf, kernel.MetricLinf),
	squareKind("squares-l1", BackendTwoStageL1, kernel.MetricL1),
}

// blockOf maps every global id to its (part, block) position.
func blockOf(sx *ShardedIndex) map[int][2]int {
	at := make(map[int][2]int)
	pi := 0
	sx.queryParts(func(s *shard) {
		for b := range s.blocks.boxes {
			for _, i := range s.blocks.block(b) {
				at[i] = [2]int{pi, b}
			}
		}
		pi++
	})
	return at
}

// assertBlockIndexes checks every built part's block index against its
// id list: the same ids, and every box bounding its rows' regions.
func assertBlockIndexes(t *testing.T, phase string, sx *ShardedIndex) {
	t.Helper()
	sx.queryParts(func(s *shard) {
		if got, want := slices.Sorted(slices.Values(s.blocks.order)), s.ids; !slices.Equal(got, want) {
			t.Fatalf("%s: block order holds ids %v, part holds %v", phase, got, want)
		}
		if nb := (len(s.ids) + blockRows - 1) / blockRows; len(s.blocks.boxes) != nb {
			t.Fatalf("%s: %d boxes for %d rows", phase, len(s.blocks.boxes), len(s.ids))
		}
		for b, box := range s.blocks.boxes {
			for _, i := range s.blocks.block(b) {
				if r := itemBounds(sx.ds, i); r.Min.X < box.Min.X || r.Min.Y < box.Min.Y || r.Max.X > box.Max.X || r.Max.Y > box.Max.Y {
					t.Fatalf("%s: block %d box %v misses row %d", phase, b, box, i)
				}
			}
		}
	})
}

// straddlingTies counts the queries where some row j ≠ arg1 has
// δ_j = m1 exactly and sits in another block than a Δ-minimizer.
func straddlingTies(sx *ShardedIndex, f *kernel.Flat, qs []geom.Point) int {
	at := blockOf(sx)
	ties := 0
	for _, q := range qs {
		m1 := math.Inf(1)
		for i := 0; i < f.N; i++ {
			m1 = min(m1, f.MaxDist(i, q.X, q.Y))
		}
		found := false
		for i := 0; i < f.N && !found; i++ {
			if f.MaxDist(i, q.X, q.Y) != m1 {
				continue
			}
			for j := 0; j < f.N; j++ {
				if j != i && f.MinDist(j, q.X, q.Y) == m1 && at[j] != at[i] {
					found = true
					break
				}
			}
		}
		if found {
			ties++
		}
	}
	return ties
}

// splitDuplicates reports whether two regions with identical bounds sit
// in different blocks.
func splitDuplicates(sx *ShardedIndex) bool {
	at := blockOf(sx)
	seen := make(map[geom.Rect][2]int)
	for i := range sx.n {
		key := itemBounds(sx.ds, i)
		if prev, ok := seen[key]; ok && prev != at[i] {
			return true
		}
		seen[key] = at[i]
	}
	return false
}

// TestBlockScanExact: the block-granular Lemma 2.1 scan answers NN≠0
// bit-identically to the flat full-scan oracle (kernel.Flat.
// AppendNonzero) and discrete π within 1e-12 of quantify's exact Eq. (2)
// over all n, for every dataset family the flat path serves, through
// every state that touches a block index: build, inserts (into the
// owning shard and into a non-empty insert buffer), a delete in a
// non-owner shard (the id remap), a delete-heavy batch (stale flat
// mirror during the rebuilds), split and merge rebalancing, and
// snapshot restore. The data
// carries δ_j = m1 ties straddling a block edge and duplicated regions
// in different blocks, and consecutive queries land far apart, so rows
// outside the scanned blocks hold δ's of earlier queries.
func TestBlockScanExact(t *testing.T) {
	const n, side = 1200, 36
	var qs []geom.Point
	for x := -1; x <= side+1; x += 2 {
		for y := -1; y <= side+1; y += 2 {
			qs = append(qs, geom.Pt(float64(x), float64(y)))
		}
	}
	qrng := rand.New(rand.NewSource(0xb10c))
	for range 40 {
		qs = append(qs, geom.Pt(qrng.Float64()*side, qrng.Float64()*side))
	}
	qrng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })

	for _, bk := range blockKinds {
		for _, buffered := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/buffer=%v", bk.name, buffered), func(t *testing.T) {
				rng := rand.New(rand.NewSource(0x5ca1e))
				ref := bk.gen(rng, n, side)
				sopt := ShardOptions{Shards: 3}
				if buffered {
					sopt.InsertBuffer, sopt.FlushThreshold = true, 1<<20
				}
				ix, err := BuildSharded(bk.backend, bk.dataset(slices.Clone(ref)), BuildOptions{}, sopt)
				if err != nil {
					t.Fatal(err)
				}
				sx := ix.(*ShardedIndex)
				check := func(phase string) {
					t.Helper()
					assertBlockIndexes(t, phase, sx)
					f := bk.flat(ref)
					var sc kernel.Scratch
					for _, q := range qs {
						got, err := sx.QueryNonzero(q)
						if err != nil {
							t.Fatal(err)
						}
						want := f.AppendNonzero(q.X, q.Y, nil, &sc)
						if !slices.Equal(got, want) {
							t.Fatalf("%s q=%v: NN≠0 %v, want %v", phase, q, got, want)
						}
					}
					if bk.name != "discrete" {
						return
					}
					pts := discreteOf(ref)
					for _, q := range qs[:len(qs)/3] {
						got, err := sx.QueryProbs(q, 0)
						if err != nil {
							t.Fatal(err)
						}
						want := quantify.ExactAt(pts, q)
						var support, gotSupport []int
						for i, p := range want {
							if p > 0 {
								support = append(support, i)
							}
						}
						for _, pr := range got {
							gotSupport = append(gotSupport, pr.I)
							if d := math.Abs(pr.P - want[pr.I]); d > 1e-12 {
								t.Fatalf("%s q=%v: π_%d = %v, want %v", phase, q, pr.I, pr.P, want[pr.I])
							}
						}
						if !slices.Equal(gotSupport, support) {
							t.Fatalf("%s q=%v: π support %v, want %v", phase, q, gotSupport, support)
						}
					}
				}
				mutate := func(ms []Mutation) {
					t.Helper()
					if _, err := sx.BatchMutate(ms); err != nil {
						t.Fatal(err)
					}
					for _, m := range ms {
						if m.Op == OpInsert {
							ref = append(ref, m.Item)
						} else {
							ref = slices.Delete(ref, m.Del, m.Del+1)
						}
					}
				}
				inserts := func(items []Item) []Mutation {
					var ms []Mutation
					for _, it := range items {
						ms = append(ms, InsertMutation(it))
					}
					return ms
				}

				if nb := len(sx.shards[0].blocks.boxes); nb < 4 {
					t.Fatalf("test setup: shard 0 has %d blocks; the scan would not prune inside it", nb)
				}
				if straddlingTies(sx, bk.flat(ref), qs) == 0 {
					t.Fatal("test setup: no δ_j = m1 tie straddles a block edge")
				}
				if !splitDuplicates(sx) {
					t.Fatal("test setup: no duplicated region lands in two blocks")
				}
				check("built")

				// Inserts: with the buffer they fill it past one block (the
				// second batch lands in a non-empty buffer), without it they
				// dirty their owning shards.
				mutate(inserts(bk.gen(rng, 70, side)))
				mutate(inserts(bk.gen(rng, 30, side)))
				if buffered {
					if nb, _, _ := sx.BufferStats(); nb != 100 {
						t.Fatalf("insert buffer holds %d items, want 100", nb)
					}
				}
				check("inserted")

				// A delete in one shard shifts the ids of every other part
				// without rebuilding it.
				owner := -1
				for si, s := range sx.shards {
					if slices.Contains(s.ids, 3) {
						owner = si
					}
				}
				mutate([]Mutation{DeleteMutation(3)})
				for si, s := range sx.shards {
					if si != owner && (len(s.ids) == 0 || s.ids[len(s.ids)-1] < 3) {
						t.Fatalf("test setup: non-owner shard %d holds no id above the deleted one", si)
					}
				}
				check("deleted-non-owner")

				// A delete-heavy batch leaves the flat mirror stale until the
				// end of its epoch, after the rebuilds derived their blocks.
				mutate(append([]Mutation{DeleteMutation(10), DeleteMutation(500), DeleteMutation(7), DeleteMutation(900), DeleteMutation(1)},
					inserts(bk.gen(rng, 3, side))...))
				check("delete-heavy batch")

				// Split: a burst into one corner overfills its shard, which
				// splits into fresh halves.
				old := make(map[*shard]bool)
				for _, s := range sx.shards {
					old[s] = true
				}
				mutate(inserts(bk.gen(rng, 2400, side/4)))
				if buffered {
					// Buffered inserts reach the shards when flushed.
					sx.opt.FlushThreshold = 1
					mutate(inserts(bk.gen(rng, 1, side)))
				}
				split := false
				for _, s := range sx.shards {
					split = split || !old[s]
				}
				if !split {
					t.Fatal("test setup: the burst split no shard")
				}
				check("split")

				// Merge: deleting all but five items of the smallest shard
				// underfills it, and it folds into a neighbour (a delete
				// alone never drops a non-empty shard).
				victim := sx.shards[0]
				for _, s := range sx.shards {
					if len(s.ids) < len(victim.ids) {
						victim = s
					}
				}
				var dels []Mutation
				for k := len(victim.ids) - 1; k >= 5; k-- {
					dels = append(dels, DeleteMutation(victim.ids[k]))
				}
				mutate(dels)
				if slices.Contains(sx.shards, victim) {
					t.Fatal("test setup: the underfull shard did not merge")
				}
				check("merged")

				// Snapshot restore derives the blocks afresh.
				var buf bytes.Buffer
				if err := WriteSnapshot(&buf, NewEngine(sx, Options{})); err != nil {
					t.Fatal(err)
				}
				re, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				sx = re.Index().(*ShardedIndex)
				check("restored")
			})
		}
	}
}

// TestBlockScanRows: on a uniform 8-shard fleet the Lemma 2.1 scan
// evaluates a small fraction of each shard it visits — the
// ShardKindCounts.Rows counter shows rows per visit far below the shard
// size for NN≠0, π and top-k, while E[d] (not on the scan) counts none.
func TestBlockScanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(0x2075))
	const n, side = 16000, 400.0
	pts := make([]*uncertain.Discrete, n)
	for i := range pts {
		cx, cy := rng.Float64()*side, rng.Float64()*side
		locs := make([]geom.Point, 3)
		for a := range locs {
			locs[a] = geom.Pt(cx+rng.NormFloat64(), cy+rng.NormFloat64())
		}
		pts[i] = uncertain.UniformDiscrete(locs)
	}
	ix, err := BuildSharded(BackendBrute, FromDiscrete(pts), BuildOptions{}, ShardOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ix, Options{})
	for range 200 {
		q := geom.Pt(rng.Float64()*side, rng.Float64()*side)
		if _, err := e.QueryNonzero(q); err != nil {
			t.Fatal(err)
		}
		if _, err := e.QueryProbs(q, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := e.QueryTopK(q, 3, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.QueryExpected(q); err != nil {
			t.Fatal(err)
		}
	}
	var visits, rows [NumKinds]uint64
	for _, sc := range e.Stats().ShardQueries {
		for k := range visits {
			visits[k] += sc.Counts[k]
			rows[k] += sc.Rows[k]
		}
	}
	shardSize := float64(n) / 8
	for k, slot := range map[string]int{"nonzero": slotNonzero, "probs": slotProbs, "topk": slotTopK} {
		if visits[slot] == 0 {
			t.Fatalf("%v: no shard visits", k)
		}
		perVisit := float64(rows[slot]) / float64(visits[slot])
		if perVisit > shardSize/10 {
			t.Fatalf("%v: %.0f rows per shard visit, shard size %.0f: the blocks do not prune", k, perVisit, shardSize)
		}
		t.Logf("%v: %.1f rows per visit (shard size %.0f)", k, perVisit, shardSize)
	}
	if rows[slotExpected] != 0 {
		t.Fatalf("E[d] counted %d scan rows; it does not run the Lemma 2.1 scan", rows[slotExpected])
	}
}

// BenchmarkDeriveBlocks_n100k prices the block-index derivation on its
// own: one part of 100k discrete rows of 3 locations (σ = 2, spread
// over a square of side 8√n, the shape of the repo benchmark's uniq
// dataset). Build and restore pay it once per part, split across the
// build workers.
func BenchmarkDeriveBlocks_n100k(b *testing.B) {
	const n = 100000
	rng := rand.New(rand.NewSource(1))
	side := 8 * math.Sqrt(n)
	pts := make([]*uncertain.Discrete, n)
	for i := range pts {
		cx, cy := rng.Float64()*side, rng.Float64()*side
		locs := make([]geom.Point, 3)
		for a := range locs {
			locs[a] = geom.Pt(cx+2*rng.NormFloat64(), cy+2*rng.NormFloat64())
		}
		pts[i] = uncertain.UniformDiscrete(locs)
	}
	ds := FromDiscrete(pts)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	b.ResetTimer()
	for range b.N {
		deriveBlocks(ds, ids)
	}
}
