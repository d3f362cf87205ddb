package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"unn/internal/constructions"
	"unn/internal/geom"
	"unn/internal/lmetric"
	"unn/internal/uncertain"
)

// refCentroid is the partitioning key as the reference partitioner
// reads it: recomputed from the item's region on every call.
func refCentroid(ds *Dataset, i int) geom.Point {
	if ds.Squares != nil {
		return ds.Squares[i].C
	}
	return ds.Points[i].Support().Center()
}

// refKDMedianSplit is the kd-median partitioner with a full sort whose
// comparator recomputes both centroids — the reference the
// precomputed-centre selection must reproduce group for group.
func refKDMedianSplit(ds *Dataset, idx []int, k int) [][]int {
	if k == 1 {
		return [][]int{idx}
	}
	kl := k / 2
	kr := k - kl
	box := geom.EmptyRect()
	for _, i := range idx {
		box = box.Extend(refCentroid(ds, i))
	}
	byX := box.Width() >= box.Height()
	coord := func(i int) float64 {
		c := refCentroid(ds, i)
		if byX {
			return c.X
		}
		return c.Y
	}
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := coord(idx[a]), coord(idx[b])
		if ca != cb {
			return ca < cb
		}
		return idx[a] < idx[b]
	})
	nl := len(idx) * kl / k
	left := append([]int(nil), idx[:nl]...)
	right := append([]int(nil), idx[nl:]...)
	return append(refKDMedianSplit(ds, left, kl), refKDMedianSplit(ds, right, kr)...)
}

// refGridSplit is the grid partitioner reading refCentroid per item.
func refGridSplit(ds *Dataset, idx []int, k int) [][]int {
	gx := max(int(math.Floor(math.Sqrt(float64(k)))), 1)
	gy := (k + gx - 1) / gx
	box := geom.EmptyRect()
	for _, i := range idx {
		box = box.Extend(refCentroid(ds, i))
	}
	groups := make([][]int, k)
	w, h := box.Width(), box.Height()
	for _, i := range idx {
		c := refCentroid(ds, i)
		col, row := 0, 0
		if w > 0 {
			col = min(int((c.X-box.Min.X)/w*float64(gx)), gx-1)
		}
		if h > 0 {
			row = min(int((c.Y-box.Min.Y)/h*float64(gy)), gy-1)
		}
		cell := min(row*gx+col, k-1)
		groups[cell] = append(groups[cell], i)
	}
	return groups
}

// refPartition is partition through the reference splitters.
func refPartition(ds *Dataset, k int, split Split) [][]int {
	idx := make([]int, ds.N())
	for i := range idx {
		idx[i] = i
	}
	var groups [][]int
	if split == SplitGrid {
		groups = refGridSplit(ds, idx, k)
	} else {
		groups = refKDMedianSplit(ds, idx, k)
	}
	for _, g := range groups {
		sort.Ints(g)
	}
	return groups
}

// sameGroups fails unless got and want hold the same groups in the same
// order.
func sameGroups(t *testing.T, tag string, got, want [][]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", tag, len(got), len(want))
	}
	for g := range want {
		if !slices.Equal(got[g], want[g]) {
			t.Fatalf("%s: group %d = %v, want %v", tag, g, got[g], want[g])
		}
	}
}

// partitionDatasets are the partitioner's test inputs: random discrete
// points, integer-grid discrete points with duplicated points and shared
// locations, and disks and squares on a coarse grid — centres that tie
// on the split axis and coincide outright — plus off-grid squares, whose
// box midpoint can miss the centre by an ulp.
func partitionDatasets() map[string]*Dataset {
	rng := rand.New(rand.NewSource(0x9a27))
	disks := make([]geom.Disk, 240)
	grid := make([]lmetric.Square, 240)
	offGrid := make([]lmetric.Square, 240)
	for i := range disks {
		c := geom.Pt(float64(rng.Intn(8)), float64(rng.Intn(8)))
		if i > 0 && rng.Intn(5) == 0 {
			c = disks[rng.Intn(i)].C
		}
		disks[i] = geom.Disk{C: c, R: 0.25 * float64(1+rng.Intn(4))}
		grid[i] = lmetric.Square{C: c, R: 0.1 + rng.Float64()}
		offGrid[i] = lmetric.Square{C: geom.Pt(rng.Float64()*30, rng.Float64()*30), R: 0.1 + rng.Float64()}
	}
	return map[string]*Dataset{
		"discrete":      FromDiscrete(constructions.RandomDiscrete(rng, 300, 3, 60, 2, 1)),
		"discrete-ties": FromDiscrete(tieDiscrete(rng, 300, 6)),
		"discrete-n5":   FromDiscrete(tieDiscrete(rng, 5, 3)),
		"disks":         FromDisks(disks),
		"squares":       FromSquares(grid),
		"squares-off":   FromSquares(offGrid),
	}
}

// TestPartitionUnchanged pins the partitioner to the reference: centres
// computed once per build and a selection under the (coordinate, id)
// order cut exactly the groups — same members, same shard order — that
// the per-comparison-centroid sort cut, for both splits, for the shards
// a Build lays out, and for a splitShard of a shard grown by inserts.
func TestPartitionUnchanged(t *testing.T) {
	for name, ds := range partitionDatasets() {
		ids := make([]int, ds.N())
		for i := range ids {
			ids[i] = i
		}
		for _, k := range []int{1, 2, 3, 7, 8} {
			for _, split := range []Split{SplitKDMedian, SplitGrid} {
				tag := fmt.Sprintf("%s/k=%d/split=%d", name, k, split)
				want := refPartition(ds, k, split)
				sameGroups(t, tag, partition(centredItems(ds, ids, itemBoxes(ds, ids)), k, split), want)

				b := BackendBrute
				if ds.Squares != nil {
					b = BackendTwoStageLinf
				}
				sx := dynamicOver(t, b, ds, ShardOptions{Shards: k, Split: split})
				built := make([][]int, len(sx.shards))
				for si, s := range sx.shards {
					built[si] = s.ids
				}
				sameGroups(t, tag+"/build", built, want)
			}
		}
	}
	checkSplitShardUnchanged(t)
}

// checkSplitShardUnchanged grows one shard by inserts that duplicate
// existing centres, then splits it: the halves must be the reference
// 2-cut of its id list.
func checkSplitShardUnchanged(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(0x5b1))
	pts := tieDiscrete(rng, 200, 6)
	sx := dynamicOver(t, BackendBrute, FromDiscrete(pts), ShardOptions{Shards: 2})
	for range 60 {
		p := pts[rng.Intn(len(pts))]
		if _, err := sx.Insert(Item{Point: uncertain.UniformDiscrete(p.Locs)}); err != nil {
			t.Fatal(err)
		}
	}
	si := 0
	for i, s := range sx.shards {
		if len(s.ids) > len(sx.shards[si].ids) {
			si = i
		}
	}
	if slices.Max(sx.shards[si].ids) < len(pts) {
		t.Fatal("splitShard: no insert landed in the largest shard")
	}
	want := refKDMedianSplit(sx.ds, slices.Clone(sx.shards[si].ids), 2)
	for _, g := range want {
		sort.Ints(g)
	}
	if err := sx.splitShard(si); err != nil {
		t.Fatal(err)
	}
	sameGroups(t, "splitShard", [][]int{sx.shards[si].ids, sx.shards[si+1].ids}, want)
}

// refAutoQuantum is the cache-quantum estimate with both order
// statistics taken by a full sort — the reference for the build's
// precomputed-centroid estimate and the selection in robustMin.
func refAutoQuantum(ds *Dataset) float64 {
	n := ds.N()
	if n < 2 {
		return 0
	}
	gap := func(vs []float64) float64 {
		sort.Float64s(vs)
		var gaps []float64
		for i := 1; i < len(vs); i++ {
			if d := vs[i] - vs[i-1]; d > 0 {
				gaps = append(gaps, d)
			}
		}
		if len(gaps) == 0 {
			return math.Inf(1)
		}
		sort.Float64s(gaps)
		i := len(gaps) / 10
		if i == 0 && len(gaps) > 1 {
			i = 1
		}
		return gaps[i]
	}
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		c := refCentroid(ds, i)
		xs[i], ys[i] = c.X, c.Y
	}
	g := math.Min(gap(xs), gap(ys))
	if math.IsInf(g, 1) || g <= 0 {
		return 0
	}
	return g / 2
}

// TestSpacingQuantumUnchanged: the dataset-spacing cache quantum — it
// sets cache keys, so not one bit may move — is the same from
// autoQuantum and from Build's precomputed centroids as from the
// full-sort reference.
func TestSpacingQuantumUnchanged(t *testing.T) {
	for name, ds := range partitionDatasets() {
		want := refAutoQuantum(ds)
		if got := autoQuantum(ds); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: autoQuantum = %v, reference %v", name, got, want)
		}
		b := BackendBrute
		if ds.Squares != nil {
			b = BackendTwoStageLinf
		}
		sx := dynamicOver(t, b, ds, ShardOptions{Shards: 3})
		if !sx.spacingOK || math.Float64bits(sx.spacing) != math.Float64bits(want) {
			t.Fatalf("%s: Build's spacing = %v (set %v), reference %v", name, sx.spacing, sx.spacingOK, want)
		}
	}
	rng := rand.New(rand.NewSource(0x9e1))
	for range 200 {
		vs := make([]float64, 1+rng.Intn(60))
		for i := range vs {
			vs[i] = float64(1 + rng.Intn(8)) // many ties
		}
		sorted := slices.Sorted(slices.Values(vs))
		i := rng.Intn(len(vs))
		if got := nthSmallest(slices.Clone(vs), i); got != sorted[i] {
			t.Fatalf("nthSmallest(%v, %d) = %v, want %v", vs, i, got, sorted[i])
		}
	}
}
