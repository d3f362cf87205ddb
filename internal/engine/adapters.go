package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"unn/internal/expected"
	"unn/internal/geom"
	"unn/internal/kernel"
	"unn/internal/lmetric"
	"unn/internal/nonzero"
	"unn/internal/quantify"
)

// BuildOptions tunes backend construction. The zero value is usable:
// every field has a documented default.
type BuildOptions struct {
	// Eps is the default additive error for approximating probability
	// backends (spiral prefix rule, and the reported MC guarantee) when a
	// query passes eps ≤ 0. Default 0.02.
	Eps float64
	// MCRounds is the number of Monte-Carlo instantiations s. Default 64.
	MCRounds int
	// Seed drives every randomized construction (Monte-Carlo sampling),
	// making builds reproducible. Default 0x6e67 ("ng").
	Seed int64
	// MCParallel fans Monte-Carlo construction over all CPUs
	// (deterministic in Seed).
	MCParallel bool
	// Diagram tunes V≠0 diagram construction.
	Diagram nonzero.DiagramOptions
	// VPr tunes probabilistic-Voronoi construction.
	VPr quantify.VPrOptions
	// SpiralQuadtree selects the quadtree branch-and-bound retrieval
	// backend for the spiral structure (§4.3 Remark (ii)).
	SpiralQuadtree bool
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.Eps <= 0 {
		o.Eps = 0.02
	}
	if o.MCRounds <= 0 {
		o.MCRounds = 64
	}
	if o.Seed == 0 {
		o.Seed = 0x6e67
	}
	return o
}

// noNonzero, noProbs and noExpected supply the unsupported-kind methods
// so each adapter only writes the queries it implements.
type noNonzero struct{}

func (noNonzero) QueryNonzero(geom.Point) ([]int, error) { return nil, ErrUnsupported }

type noProbs struct{}

func (noProbs) QueryProbs(geom.Point, float64) ([]quantify.Prob, error) {
	return nil, ErrUnsupported
}

type noExpected struct{}

func (noExpected) QueryExpected(geom.Point) (int, float64, error) {
	return -1, 0, ErrUnsupported
}

// --- brute: Lemma 2.1 oracle + Eq. (2) sweep --------------------------------

// bruteIndex is the reference backend: O(n) NN≠0 per query (Lemma 2.1),
// O(N log N + N·n) exact π per query (Eq. (2)) and a linear
// expected-distance scan for discrete inputs.
type bruteIndex struct {
	opt BuildOptions
	ds  *Dataset
	// flat is the SoA mirror of the point rows: the fused one-pass NN≠0
	// kernel and the contiguous E[d] scan run on it (bit-identical to the
	// AoS oracles — same operations in the same order, half the distance
	// evaluations for NN≠0). It is lowered lazily on the first query
	// (ensureFlat): the dynamic layer rebuilds shard backends on every
	// mutation epoch, and a mutation-only window would otherwise pay a
	// full O(shard) lowering per rebuild that no query ever reads.
	flatOnce sync.Once
	flat     *kernel.Flat
}

func (ix *bruteIndex) Name() string { return string(BackendBrute) }

func (ix *bruteIndex) Capabilities() Capability {
	c := CapNonzero
	if ix.ds != nil && ix.ds.Discrete != nil {
		c |= CapProbs | CapExpected | CapTopK
	}
	return c
}

func (ix *bruteIndex) Build(ds *Dataset) error {
	if len(ds.Points) == 0 {
		return fmt.Errorf("brute: dataset has no uncertain points")
	}
	ix.ds = ds
	return nil
}

// ensureFlat lowers the dataset into the SoA mirror on first use. Mixed
// region families stay on the AoS oracle (nil). Concurrent queries hold
// the sharded layer's RLock, so the sync.Once is the only guard needed;
// rebuildShard reads ix.flat under the write lock, after every reader
// has drained.
func (ix *bruteIndex) ensureFlat() *kernel.Flat {
	ix.flatOnce.Do(func() {
		switch {
		case ix.ds.Discrete != nil:
			ix.flat = kernel.FromDiscreteInto(takeShardFlat(), ix.ds.Discrete)
		case ix.ds.Disks != nil:
			ix.flat = kernel.FromDisksInto(takeShardFlat(), ix.ds.Disks)
		}
	})
	return ix.flat
}

// shardFlatPool recycles per-backend SoA mirrors across the dynamic
// layer's shard rebuilds (rebuildShard returns the replaced backend's
// mirror). A Get that comes back with the wrong kind is simply dropped
// by the FromXxxInto constructors — correctness never depends on what
// the pool holds.
var shardFlatPool sync.Pool

func takeShardFlat() *kernel.Flat {
	f, _ := shardFlatPool.Get().(*kernel.Flat)
	return f
}

func recycleShardFlat(f *kernel.Flat) { shardFlatPool.Put(f) }

func (ix *bruteIndex) QueryNonzero(q geom.Point) ([]int, error) {
	return ix.appendNonzero(q, nil)
}

func (ix *bruteIndex) appendNonzero(q geom.Point, dst []int) ([]int, error) {
	f := ix.ensureFlat()
	if f == nil {
		return append(dst, nonzero.Brute(ix.ds.Points, q)...), nil
	}
	sc := kernel.GetScratch()
	dst = f.AppendNonzero(q.X, q.Y, dst, sc)
	kernel.PutScratch(sc)
	return dst, nil
}

func (ix *bruteIndex) QueryProbs(q geom.Point, _ float64) ([]quantify.Prob, error) {
	if ix.ds.Discrete == nil {
		return nil, ErrUnsupported
	}
	return quantify.ExactPositive(ix.ds.Discrete, q), nil
}

// QueryTopK is the brute reference for top-k most-likely NN: the exact
// Eq. (2) sweep followed by the shared deterministic selection.
func (ix *bruteIndex) QueryTopK(q geom.Point, k int, _ float64) ([]quantify.Prob, error) {
	if ix.ds.Discrete == nil {
		return nil, ErrUnsupported
	}
	if k < 1 {
		return nil, fmt.Errorf("engine: topk: k must be ≥ 1, got %d", k)
	}
	return topKSelect(quantify.ExactPositive(ix.ds.Discrete, q), k), nil
}

func (ix *bruteIndex) QueryExpected(q geom.Point) (int, float64, error) {
	if ix.ds.Discrete == nil {
		return -1, 0, ErrUnsupported
	}
	if f := ix.ensureFlat(); f != nil && f.Kind == kernel.KindDiscrete {
		i, d := f.ExpectedArgmin(q.X, q.Y)
		return i, d, nil
	}
	best, bestD := -1, math.Inf(1)
	for i, p := range ix.ds.Discrete {
		if d := p.ExpectedDist(q); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD, nil
}

// --- diagram: V≠0 with point location (Thms 2.5/2.14 + 2.11) ---------------

type diagramIndex struct {
	noProbs
	noExpected
	opt  BuildOptions
	diag *nonzero.Diagram
}

func (ix *diagramIndex) Name() string             { return string(BackendDiagram) }
func (ix *diagramIndex) Capabilities() Capability { return CapNonzero }

func (ix *diagramIndex) Build(ds *Dataset) error {
	var err error
	switch {
	case ds.Disks != nil:
		ix.diag, err = nonzero.BuildDiskDiagram(ds.Disks, ix.opt.Diagram)
	case ds.Discrete != nil:
		ix.diag, err = nonzero.BuildDiscreteDiagram(ds.Discrete, ix.opt.Diagram)
	default:
		err = fmt.Errorf("diagram: dataset is neither all-disk nor all-discrete")
	}
	return err
}

func (ix *diagramIndex) QueryNonzero(q geom.Point) ([]int, error) {
	return ix.diag.Query(q), nil
}

// cellID returns the identity of the arrangement cell containing q:
// within one cell of the V≠0 diagram the answer is constant, so the
// engine cache can key NN≠0 entries by (slab, gap) — every query in the
// cell shares one entry, and no quantum-grid rounding can alias two
// cells across a slab boundary. Points outside the located box (or on a
// degenerate locate) report no identity and fall back to quantized keys.
func (ix *diagramIndex) cellID(q geom.Point) (uint64, bool) {
	if ix.diag.Loc == nil || !ix.diag.Box.Contains(q) {
		return 0, false
	}
	s, g, ok := ix.diag.Loc.Locate(q)
	if !ok {
		return 0, false
	}
	return uint64(s)<<32 | uint64(uint32(g)), true
}

// QuantumHint derives the adaptive cache quantum from the built
// diagram's cell extents: inside a vertical slab the answer is constant
// per gap, so slab width lower-bounds the horizontal extent of every
// cell fragment. The hint is the robust minimum of the slab widths
// (robustMin) — the literal minimum degenerates to slivers where
// arrangement vertices nearly coincide, which would disable answer
// sharing entirely.
func (ix *diagramIndex) QuantumHint() float64 {
	loc := ix.diag.Loc
	if loc == nil || loc.SlabCount() == 0 {
		return 0
	}
	ws := make([]float64, 0, loc.SlabCount())
	for s := 0; s < loc.SlabCount(); s++ {
		if w := loc.SlabWidth(s); w > 0 {
			ws = append(ws, w)
		}
	}
	if w := robustMin(ws); !math.IsInf(w, 1) {
		return w
	}
	return 0
}

// --- two-stage structures (Thms 3.1/3.2) ------------------------------------

type twoStageDisksIndex struct {
	noProbs
	noExpected
	ts *nonzero.TwoStageDisks
}

func (ix *twoStageDisksIndex) Name() string             { return string(BackendTwoStageDisks) }
func (ix *twoStageDisksIndex) Capabilities() Capability { return CapNonzero }

func (ix *twoStageDisksIndex) Build(ds *Dataset) error {
	if ds.Disks == nil {
		return fmt.Errorf("twostage-disks: dataset is not all-disk")
	}
	ix.ts = nonzero.NewTwoStageDisks(ds.Disks)
	return nil
}

func (ix *twoStageDisksIndex) QueryNonzero(q geom.Point) ([]int, error) {
	return ix.ts.Query(q), nil
}

func (ix *twoStageDisksIndex) appendNonzero(q geom.Point, dst []int) ([]int, error) {
	return ix.ts.QueryAppend(q, dst), nil
}

type twoStageDiscreteIndex struct {
	noProbs
	noExpected
	ts *nonzero.TwoStageDiscrete
}

func (ix *twoStageDiscreteIndex) Name() string             { return string(BackendTwoStageDiscrete) }
func (ix *twoStageDiscreteIndex) Capabilities() Capability { return CapNonzero }

func (ix *twoStageDiscreteIndex) Build(ds *Dataset) error {
	if ds.Discrete == nil {
		return fmt.Errorf("twostage-discrete: dataset is not all-discrete")
	}
	ix.ts = nonzero.NewTwoStageDiscrete(ds.Discrete)
	return nil
}

func (ix *twoStageDiscreteIndex) QueryNonzero(q geom.Point) ([]int, error) {
	return ix.ts.Query(q), nil
}

func (ix *twoStageDiscreteIndex) appendNonzero(q geom.Point, dst []int) ([]int, error) {
	return ix.ts.QueryAppend(q, dst), nil
}

// --- V_Pr: exact probabilistic Voronoi diagram (Thm 4.2) --------------------

type vprIndex struct {
	noNonzero
	noExpected
	opt BuildOptions
	v   *quantify.VPr
}

func (ix *vprIndex) Name() string             { return string(BackendVPr) }
func (ix *vprIndex) Capabilities() Capability { return CapProbs | CapTopK }

func (ix *vprIndex) Build(ds *Dataset) error {
	if ds.Discrete == nil {
		return fmt.Errorf("vpr: dataset is not all-discrete")
	}
	var err error
	ix.v, err = quantify.BuildVPr(ds.Discrete, ix.opt.VPr)
	return err
}

func (ix *vprIndex) QueryProbs(q geom.Point, _ float64) ([]quantify.Prob, error) {
	return ix.v.QueryPositive(q), nil
}

// --- Monte Carlo (Thms 4.3/4.5) ---------------------------------------------

type monteCarloIndex struct {
	noNonzero
	noExpected
	opt BuildOptions
	mc  *quantify.MonteCarlo
}

func (ix *monteCarloIndex) Name() string             { return string(BackendMonteCarlo) }
func (ix *monteCarloIndex) Capabilities() Capability { return CapProbs | CapTopK }

func (ix *monteCarloIndex) Build(ds *Dataset) error {
	if len(ds.Points) == 0 {
		return fmt.Errorf("montecarlo: dataset has no uncertain points")
	}
	mcOpt := quantify.MCOptions{Rng: rand.New(rand.NewSource(ix.opt.Seed))}
	var err error
	if ix.opt.MCParallel {
		ix.mc, err = quantify.NewMonteCarloParallel(ds.Points, ix.opt.MCRounds, mcOpt)
	} else {
		ix.mc, err = quantify.NewMonteCarlo(ds.Points, ix.opt.MCRounds, mcOpt)
	}
	return err
}

func (ix *monteCarloIndex) QueryProbs(q geom.Point, _ float64) ([]quantify.Prob, error) {
	return ix.mc.Query(q), nil
}

// --- spiral search (Thm 4.7) ------------------------------------------------

type spiralIndex struct {
	noNonzero
	noExpected
	opt BuildOptions
	sp  *quantify.Spiral
}

func (ix *spiralIndex) Name() string             { return string(BackendSpiral) }
func (ix *spiralIndex) Capabilities() Capability { return CapProbs | CapTopK }

func (ix *spiralIndex) Build(ds *Dataset) error {
	if ds.Discrete == nil {
		return fmt.Errorf("spiral: dataset is not all-discrete")
	}
	var err error
	if ix.opt.SpiralQuadtree {
		ix.sp, err = quantify.NewSpiralQuadtree(ds.Discrete)
	} else {
		ix.sp, err = quantify.NewSpiral(ds.Discrete)
	}
	return err
}

func (ix *spiralIndex) QueryProbs(q geom.Point, eps float64) ([]quantify.Prob, error) {
	if eps <= 0 {
		eps = ix.opt.Eps
	}
	probs, _ := ix.sp.Query(q, eps)
	return probs, nil
}

// --- expected-distance semantics ([AESZ12]) ---------------------------------

type expectedIndex struct {
	noNonzero
	noProbs
	ix *expected.Index
}

func (ix *expectedIndex) Name() string             { return string(BackendExpected) }
func (ix *expectedIndex) Capabilities() Capability { return CapExpected }

func (ix *expectedIndex) Build(ds *Dataset) error {
	if ds.Discrete == nil {
		return fmt.Errorf("expected: dataset is not all-discrete")
	}
	var err error
	ix.ix, err = expected.New(ds.Discrete)
	return err
}

func (ix *expectedIndex) QueryExpected(q geom.Point) (int, float64, error) {
	i, d := ix.ix.NNExpected(q)
	return i, d, nil
}

// --- L∞ / L1 two-stage structures (remark after Thm 3.1) --------------------

type linfIndex struct {
	noProbs
	noExpected
	ts *lmetric.TwoStageLinf
}

func (ix *linfIndex) Name() string             { return string(BackendTwoStageLinf) }
func (ix *linfIndex) Capabilities() Capability { return CapNonzero }

func (ix *linfIndex) Build(ds *Dataset) error {
	if ds.Squares == nil {
		return fmt.Errorf("twostage-linf: dataset has no squares (use FromSquares)")
	}
	ix.ts = lmetric.NewTwoStageLinf(ds.Squares)
	return nil
}

func (ix *linfIndex) QueryNonzero(q geom.Point) ([]int, error) {
	return ix.ts.Query(q), nil
}

func (ix *linfIndex) appendNonzero(q geom.Point, dst []int) ([]int, error) {
	return ix.ts.QueryAppend(q, dst), nil
}

type l1Index struct {
	noProbs
	noExpected
	ts *lmetric.TwoStageL1
}

func (ix *l1Index) Name() string             { return string(BackendTwoStageL1) }
func (ix *l1Index) Capabilities() Capability { return CapNonzero }

func (ix *l1Index) Build(ds *Dataset) error {
	if ds.Squares == nil {
		return fmt.Errorf("twostage-l1: dataset has no diamonds (use FromSquares)")
	}
	ix.ts = lmetric.NewTwoStageL1(ds.Squares)
	return nil
}

func (ix *l1Index) QueryNonzero(q geom.Point) ([]int, error) {
	return ix.ts.Query(q), nil
}

func (ix *l1Index) appendNonzero(q geom.Point, dst []int) ([]int, error) {
	return ix.ts.QueryAppend(q, dst), nil
}
