// The block index: the layout the Lemma 2.1 scan (plan.go) prunes
// inside a part.
//
// Shard pruning alone leaves every query scanning whole parts — on a
// 100k-row, 8-shard fleet that is ≈12.5k rows to find an NN≠0 set of a
// few points. The block index narrows the scan the way the kd
// branch-and-bound does: each part's rows are permuted into kd-leaf
// order and cut into runs of blockRows rows, and each run keeps the
// bounding box of its regions. The scan visits a part's blocks
// best-first by box lower bound and stops under the shard rule, so it
// evaluates the rows near q and no others.
//
// Lifecycle. A part's block index is derived from its id list and the
// dataset's region bounds wherever the part's backend is built, rebuilt
// or restored
// (Build, rebuildShard, decodeShard and the insert-buffer restore). An
// insert dirties its part, whose rebuild re-derives the index; the
// snapshot format carries nothing new. A delete rebuilds its owner,
// and every other part shifts the global ids above the deleted one
// down by one — in its block order exactly as in its id list
// (applyDelete). s.ids itself stays sorted: applyDelete and the
// sole-part remap binary-search it.
package engine

import (
	"math"

	"unn/internal/geom"
)

// blockRows is the row count of one block (the last block of a part
// may be shorter).
const blockRows = 64

// blockIndex is one part's scan layout: its global ids in kd-leaf
// order, and per run of blockRows of them the bounding box of their
// regions. The zero value (no flat mirror, or no ids) has no blocks.
type blockIndex struct {
	order []int
	boxes []geom.Rect
}

// block returns the ids of block b.
func (bi *blockIndex) block(b int) []int {
	lo := b * blockRows
	return bi.order[lo:min(lo+blockRows, len(bi.order))]
}

// shiftAbove applies the dense delete remap to the block order: every
// id above the deleted id i moves down by one.
func (bi *blockIndex) shiftAbove(i int) {
	for k, id := range bi.order {
		if id > i {
			bi.order[k] = id - 1
		}
	}
}

// blockItem is one row during derivation: its region's centre, rounded
// to float32 (the order only shapes the blocks; their boxes are exact),
// and its position in the part's id list.
type blockItem struct {
	c [2]float32
	k int32
}

// blocksFor derives the block index of a part holding ids, whose region
// boxes are boxes (ids[k]'s at k; nil reads them off the dataset). Only
// the flat-mirror scan reads block indexes, so fleets without a mirror
// get none.
func (sx *ShardedIndex) blocksFor(ids []int, boxes []geom.Rect) blockIndex {
	if sx.flat == nil {
		return blockIndex{}
	}
	if boxes == nil {
		boxes = itemBoxes(sx.ds, ids)
	}
	return deriveBlocks(ids, boxes)
}

// deriveBlocks builds the block index of the part holding ids, whose
// region boxes are boxes (ids[k]'s at k). The kd split cuts at
// block-multiple positions, so every leaf is exactly one block except a
// short last one.
func deriveBlocks(ids []int, boxes []geom.Rect) blockIndex {
	items := make([]blockItem, len(ids))
	cell := [2][2]float32{{float32(math.Inf(1)), float32(math.Inf(1))}, {float32(math.Inf(-1)), float32(math.Inf(-1))}}
	for k := range ids {
		c := boxes[k].Center()
		it := blockItem{c: [2]float32{float32(c.X), float32(c.Y)}, k: int32(k)}
		for a := range 2 {
			cell[0][a], cell[1][a] = min(cell[0][a], it.c[a]), max(cell[1][a], it.c[a])
		}
		items[k] = it
	}
	kdOrder(items, cell[0], cell[1])
	bi := blockIndex{
		order: make([]int, len(items)),
		boxes: make([]geom.Rect, (len(items)+blockRows-1)/blockRows),
	}
	for b := range bi.boxes {
		box := geom.EmptyRect()
		lo := b * blockRows
		for k := lo; k < min(lo+blockRows, len(items)); k++ {
			it := items[k]
			bi.order[k] = ids[it.k]
			r := boxes[it.k]
			box.Min.X, box.Min.Y = min(box.Min.X, r.Min.X), min(box.Min.Y, r.Min.Y)
			box.Max.X, box.Max.Y = max(box.Max.X, r.Max.X), max(box.Max.Y, r.Max.Y)
		}
		bi.boxes[b] = box
	}
	return bi
}

// kdOrder permutes items, whose centres lie in the cell [lo, hi], into
// kd-leaf order: split at the block-multiple position nearest the
// middle, along the cell's wider axis, and recurse on the two halves of
// the cell until a side fits one block.
func kdOrder(items []blockItem, lo, hi [2]float32) {
	for len(items) > blockRows {
		axis := 0
		if hi[1]-lo[1] > hi[0]-lo[0] {
			axis = 1
		}
		nb := (len(items) + blockRows - 1) / blockRows
		cut := nb / 2 * blockRows
		selectNth(items, cut, axis)
		mid := hi
		mid[axis] = items[cut].c[axis]
		kdOrder(items[:cut], lo, mid)
		items, lo[axis] = items[cut:], mid[axis]
	}
}

// selectNth rearranges a so that a[k] holds the element a sort by
// c[axis] would put there, with nothing greater before it and nothing
// smaller after it (Hoare quickselect, median-of-three pivot; runs of
// equal keys split evenly, so duplicated points cannot make it
// quadratic).
func selectNth(a []blockItem, k, axis int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		x, y, z := a[lo].c[axis], a[lo+(hi-lo)/2].c[axis], a[hi].c[axis]
		p := max(min(x, y), min(max(x, y), z))
		i, j := lo, hi
		for i <= j {
			for a[i].c[axis] < p {
				i++
			}
			for a[j].c[axis] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// blockLB is one heap entry of the best-first block visit.
type blockLB struct {
	lb float64
	b  int32
}

// heapDown restores the min-heap property below position i.
func heapDown(h []blockLB, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].lb < h[l].lb {
			m = r
		}
		if h[i].lb <= h[m].lb {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
