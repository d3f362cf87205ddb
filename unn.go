// Package unn is a library for nearest-neighbor searching under
// uncertainty in the plane, reproducing
//
//	"Nearest-Neighbor Searching Under Uncertainty II"
//	(Agarwal, Aronov, Har-Peled, Phillips, Yi, Zhang; PODS 2013 /
//	arXiv:1606.00112), together with the expected-distance semantics of
//	the companion PODS 2012 paper [AESZ12].
//
// An uncertain point is a probability distribution over locations —
// continuous with bounded support (uniform disk, truncated Gaussian,
// histogram) or discrete ({(p_j, w_j)}, Σw = 1). For a query point q the
// library answers:
//
//   - NN≠0(q): every point with nonzero probability of being the nearest
//     neighbor — via the exact O(n) oracle (Lemma 2.1), the nonzero
//     Voronoi diagram V≠0(P) with point location (Theorems 2.5–2.14), or
//     near-linear two-stage structures (Theorems 3.1/3.2);
//   - quantification probabilities π_i(q) = Pr[P_i is the NN of q] —
//     exactly (Eq. (2), or the V_Pr diagram of Theorem 4.2), by Monte
//     Carlo (Theorem 4.3/4.5), or by deterministic spiral search
//     (Theorem 4.7); plus threshold and top-k wrappers;
//   - top-k most-likely NN (Handle.QueryTopK): the k points with the
//     largest π_i(q), ranked by probability with deterministic
//     index-order tie-break — a first-class query kind served by any
//     π-capable backend;
//   - expected-distance NN queries (the [AESZ12] semantics).
//
// All of these are served through one query engine: Open builds any
// backend behind a capability-checked Handle with single, batched
// (parallel, deterministic order) and cached execution.
//
// # Cost-based planning
//
// WithPlanner replaces the rule-based automatic backend choice with a
// query planner: per-backend build and query costs are estimated from
// the paper's own asymptotics, calibrated to the machine (a Build-time
// micro-probe, or a persisted BENCH_engine.json via WithCalibration),
// and each query kind is assigned its cheapest capable backend — e.g.
// one discrete handle serving NN≠0 from the Theorem 3.2 two-stage
// structure, π from the Theorem 4.7 spiral search, and E[d] from the
// [AESZ12] centroid index, where the rule-based choice would pay the
// brute oracle's O(n) (or Õ(n²) for π) on every query. WithPlannerMix
// declares the expected workload; Handle.Explain reports the decision
// with its cost estimates; Handle.Stats exposes the measured per-kind
// latencies that close the calibration loop.
//
// # Sharding
//
// WithShards(k) turns on the sharded execution layer: the dataset is
// split into k spatial shards (kd-median cut on region centroids by
// default, WithShardGrid selects a grid cut), one backend instance is
// built per shard in parallel, and every query is answered by merging
// the per-shard answers with bounding-box distance pruning. NN≠0 and
// expected-distance answers are identical to the unsharded backend's;
// quantification probabilities are combined under the independence
// model — exactly for discrete datasets, and by a documented survival
// integral approximation for continuous ones.
//
// # Serving streams
//
// Handle.Serve(ctx, in) answers an asynchronous query stream: a worker
// pool drains the input channel and completions arrive on the returned
// channel as they finish — out of order under load, tagged with the
// caller-assigned Query.Seq. The answer channel's capacity (set by
// WithServeBuffer) is the backpressure window: a slow consumer
// transitively stops the stream from accepting input. Closing the input
// channel ends the stream gracefully; cancelling the context tears it
// down without deadlocking. Per-query failures are reported in
// Answer.Err and do not stop the stream.
//
// # Dynamic mutations
//
// A sharded handle is mutable: Handle.Insert / InsertSquare append an
// uncertain point at index n, Handle.Delete(i) removes item i (indices
// stay dense — later items shift down by one, like deleting from a
// slice). Mutations route to the owning shard by centroid and rebuild
// only that shard's backend; a shard drifting past 2× the per-shard
// size target splits, one falling below ½× merges with its nearest
// spatial neighbor — and the target itself tracks ⌈n/k⌉ of the live
// dataset with hysteresis, so a long stream keeps about k shards of
// growing size instead of fragmenting far past the core count. Every
// mutation is serialized against in-flight
// queries (reads see the index strictly before or after a mutation,
// never mid-rebalance) and flushes the answer cache. On the Serve
// stream the same mutations travel as OpInsert/OpDelete ops in
// Query.Kind. Monolithic handles return ErrImmutable. With
// WithShardAdaptive, rebuilds also pick each shard's backend by size:
// small shards take the brute reference (cheap rebuilds under churn),
// large ones the two-stage structure, whenever the swap preserves the
// handle's capability set.
//
// Bursts amortize further: Handle.BatchMutate applies a whole run of
// mutations under one write lock and rebuilds each touched shard once
// per batch instead of once per item (the Serve stream coalesces runs
// of queued mutation ops into such batches automatically), and
// WithInsertBuffer adds a log-structured delta shard that absorbs
// inserts without any main-shard rebuild until a cost-model-chosen
// flush threshold is reached.
//
// The quickstart example under examples/quickstart exercises every
// query type through the engine, and examples/streaming drives a live
// fleet through the dynamic mutation API; DESIGN.md maps each theorem
// to its implementation (and diagrams the sharded layer) and
// EXPERIMENTS.md records the measured reproduction of every claim.
package unn

import (
	"fmt"
	"io"
	"math/rand"

	"unn/internal/engine"
	"unn/internal/expected"
	"unn/internal/geom"
	"unn/internal/lmetric"
	"unn/internal/nonzero"
	"unn/internal/quantify"
	"unn/internal/uncertain"
)

// --- geometry ---------------------------------------------------------------

// Point is a point in the plane.
type Point = geom.Point

// Disk is a closed disk (an uncertainty region).
type Disk = geom.Disk

// Rect is an axis-aligned rectangle.
type Rect = geom.Rect

// Pt builds a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// DiskAt builds a Disk.
func DiskAt(x, y, r float64) Disk { return geom.DiskAt(x, y, r) }

// --- uncertain point model ----------------------------------------------

// Uncertain is an uncertain point: any probability distribution over
// planar locations exposing extreme distances, the distance cdf and
// sampling.
type Uncertain = uncertain.Point

// Discrete is an uncertain point with finitely many locations.
type Discrete = uncertain.Discrete

// UniformDisk is the uniform distribution on a disk.
type UniformDisk = uncertain.UniformDisk

// TruncGauss is a Gaussian truncated to a disk.
type TruncGauss = uncertain.TruncGauss

// Histogram is a grid-histogram pdf.
type Histogram = uncertain.Histogram

// NewDiscrete builds a discrete uncertain point (weights are normalized).
func NewDiscrete(locs []Point, w []float64) (*Discrete, error) {
	return uncertain.NewDiscrete(locs, w)
}

// UniformDiscrete builds a discrete uncertain point with equal weights.
func UniformDiscrete(locs []Point) *Discrete { return uncertain.UniformDiscrete(locs) }

// NewTruncGauss builds a truncated Gaussian on disk d.
func NewTruncGauss(d Disk, sigma float64) *TruncGauss { return uncertain.NewTruncGauss(d, sigma) }

// NewHistogram builds a histogram pdf.
func NewHistogram(origin Point, cellW, cellH float64, w [][]float64) (*Histogram, error) {
	return uncertain.NewHistogram(origin, cellW, cellH, w)
}

// Discretize samples m locations from any uncertain point (the
// continuous→discrete reduction of Theorem 4.5).
func Discretize(p Uncertain, m int, rng *rand.Rand) *Discrete {
	return uncertain.Discretize(p, m, rng)
}

// Disks wraps plain disks as uncertain points (the pdf is irrelevant for
// NN≠0 queries).
func Disks(disks []Disk) []Uncertain { return nonzero.DisksAsUncertain(disks) }

// FromDiscrete converts discrete points to the generic interface.
func FromDiscrete(pts []*Discrete) []Uncertain { return nonzero.DiscreteAsUncertain(pts) }

// --- the query engine --------------------------------------------------------

// Backend names one of the adapted index structures of the engine layer.
type Backend = engine.Backend

// The available backends. Every backend answers the query kinds it
// supports (its Capabilities); the Handle rejects the rest with
// ErrUnsupported.
const (
	// BackendAuto picks the backend(s) by dataset kind so every query
	// kind some backend could answer is supported: the Lemma 2.1 /
	// Eq. (2) reference evaluator for discrete points, the two-stage L∞
	// structure for squares, and for continuous (or mixed) points the
	// reference NN≠0 oracle routed together with the Monte-Carlo
	// quantifier.
	BackendAuto Backend = "auto"
	// BackendBrute is the exact reference: Lemma 2.1 NN≠0 oracle, the
	// Eq. (2) sweep for π, and a linear expected-distance scan.
	BackendBrute = engine.BackendBrute
	// BackendDiagram is the nonzero Voronoi diagram V≠0(P) with point
	// location (Theorems 2.5/2.14 + 2.11).
	BackendDiagram = engine.BackendDiagram
	// BackendTwoStageDisks is the near-linear structure of Theorem 3.1.
	BackendTwoStageDisks = engine.BackendTwoStageDisks
	// BackendTwoStageDiscrete is the near-linear structure of Theorem 3.2.
	BackendTwoStageDiscrete = engine.BackendTwoStageDiscrete
	// BackendVPr is the exact probabilistic Voronoi diagram (Theorem 4.2).
	BackendVPr = engine.BackendVPr
	// BackendMonteCarlo is the randomized structure of Theorems 4.3/4.5.
	BackendMonteCarlo = engine.BackendMonteCarlo
	// BackendSpiral is the deterministic spiral search of Theorem 4.7.
	BackendSpiral = engine.BackendSpiral
	// BackendExpected is the expected-distance index ([AESZ12]).
	BackendExpected = engine.BackendExpected
	// BackendTwoStageLinf answers NN≠0 over squares under L∞.
	BackendTwoStageLinf = engine.BackendTwoStageLinf
	// BackendTwoStageL1 answers NN≠0 over diamonds under L1.
	BackendTwoStageL1 = engine.BackendTwoStageL1
)

// Capability is the bitmask of query kinds a backend supports.
type Capability = engine.Capability

// The capability bits.
const (
	CapNonzero  = engine.CapNonzero
	CapProbs    = engine.CapProbs
	CapExpected = engine.CapExpected
	CapTopK     = engine.CapTopK
)

// The query-kind names alias the capability bits when one selects a
// query method (Request dispatch, Serve-stream Query.Kind): a
// registered kind IS its capability bit.
const (
	QueryKindNonzero  = engine.QueryKindNonzero
	QueryKindProbs    = engine.QueryKindProbs
	QueryKindExpected = engine.QueryKindExpected
	QueryKindTopK     = engine.QueryKindTopK
)

// ErrUnsupported is returned when a Handle is asked for a query kind its
// backend does not support.
var ErrUnsupported = engine.ErrUnsupported

// ErrInvalidInput is returned by every query entry point (Query*,
// QueryNonzeroInto, Batch* — reporting the lowest bad index — and
// Serve, in Answer.Err) for a query point with a NaN or ±Inf
// coordinate, by QueryProbs, QueryTopK, BatchProbs, BatchTopK and
// Serve for a NaN or ±Inf eps (a finite eps ≤ 0 selects the default),
// and by Open*, Insert, InsertSquare and BatchMutate for an
// uncertainty region with a non-finite centre or location or a NaN,
// ±Inf or negative radius (reporting the lowest bad index; nothing is
// built or applied).
var ErrInvalidInput = engine.ErrInvalidInput

// ErrImmutable is returned by Insert/Delete on a handle whose backend
// does not support mutations (every monolithic backend; use WithShards
// for a dynamic handle).
var ErrImmutable = engine.ErrImmutable

// ExpectedResult is one expected-distance batch answer.
type ExpectedResult = engine.ExpectedResult

// Item is one insertion payload for dynamic handles: exactly one field
// set, matching the dataset kind (Point for Open/OpenDiscrete/OpenDisks
// handles, Square for OpenSquares handles).
type Item = engine.Item

// Mutation is one entry of a Handle.BatchMutate burst — an insert or a
// delete, built with InsertMutation / InsertSquareMutation /
// DeleteMutation. Delete indices use sequential semantics: each is
// interpreted against the dataset state left by the mutations before it
// in the batch, exactly as if the batch ran one mutation at a time.
type Mutation = engine.Mutation

// InsertMutation builds a batch entry inserting uncertain point p.
func InsertMutation(p Uncertain) Mutation {
	return engine.InsertMutation(engine.Item{Point: p})
}

// InsertSquareMutation is InsertMutation for OpenSquares handles.
func InsertSquareMutation(s Square) Mutation {
	return engine.InsertMutation(engine.Item{Square: &s})
}

// DeleteMutation builds a batch entry deleting global item i.
func DeleteMutation(i int) Mutation { return engine.DeleteMutation(i) }

// OpInsert and OpDelete are the Serve-stream mutation ops: a Query
// carrying one of them in Kind applies Handle.Insert / Handle.Delete
// through the stream, serialized against in-flight queries.
const (
	OpInsert = engine.OpInsert
	OpDelete = engine.OpDelete
)

// Query is one request on a Handle.Serve stream: a caller-assigned Seq
// tag (echoed in the Answer), the query kind (exactly one capability
// bit) or mutation op, the query point, and the accuracy knob for
// probability queries (or the mutation payload).
type Query = engine.Query

// Answer is one completed Serve query; exactly one payload field (by
// Kind) is meaningful and per-query failures arrive in Err without
// ending the stream.
type Answer = engine.Answer

// Option tunes Open.
type Option func(*openConfig)

type openConfig struct {
	backend     Backend
	build       engine.BuildOptions
	run         engine.Options
	shard       engine.ShardOptions
	planner     engine.PlannerOptions
	replanSet   bool  // WithAdaptivePlanner given (implies plannerSet)
	plannerSet  bool  // WithPlanner (or a planner shaping option) given
	shardsSet   bool  // WithShards given (its k must then be ≥ 1)
	splitSet    bool  // WithShardGrid given (meaningless without WithShards)
	adaptiveSet bool  // WithShardAdaptive given (meaningless without WithShards)
	bufferSet   bool  // WithInsertBuffer given (meaningless without WithShards)
	calErr      error // WithCalibration load failure, surfaced by Open
}

// WithBackend selects the index structure. Default BackendAuto.
func WithBackend(b Backend) Option { return func(c *openConfig) { c.backend = b } }

// WithWorkers sets the batch worker-pool size (default runtime.NumCPU();
// 1 forces sequential batches).
func WithWorkers(n int) Option { return func(c *openConfig) { c.run.Workers = n } }

// WithShards enables the sharded execution layer: the dataset is split
// into k spatial shards, one backend instance is built per shard (in
// parallel), and queries are answered by the merge planner with
// bounding-box shard pruning. Open rejects k < 1 rather than silently
// running unsharded; shards may be empty when k exceeds the dataset
// size. See the package comment for the merge semantics.
func WithShards(k int) Option {
	return func(c *openConfig) {
		c.shard.Shards = k
		c.shardsSet = true
	}
}

// WithShardGrid selects the grid partitioner (uniform cells over the
// centroid bounding box) instead of the default kd-median cut. It only
// shapes the sharding enabled by WithShards; Open rejects it without
// one rather than silently running unsharded.
func WithShardGrid() Option {
	return func(c *openConfig) {
		c.shard.Split = engine.SplitGrid
		c.splitSet = true
	}
}

// WithShardAdaptive enables per-shard backend choice on a sharded
// handle: when a mutation (or the initial build) gives a shard at most
// cutoff items (≤ 0 selects the default, 32), that shard runs the brute
// reference backend — constant-time rebuilds under churn — while larger
// shards run the two-stage structure of the dataset kind. Swaps happen
// only when they preserve the handle's capability set — so under
// BackendAuto (which already picks the full-capability reference) the
// knob has no effect; pair it with an explicit NN≠0 backend such as
// BackendTwoStageDiscrete or BackendTwoStageDisks. Requires WithShards.
// WithPlanner generalizes this fixed rule: under the cost-based planner
// every shard re-plans all its query kinds at its own size from
// calibrated costs, no cutoff to tune — combining the two is rejected.
func WithShardAdaptive(cutoff int) Option {
	return func(c *openConfig) {
		c.shard.Adaptive = true
		c.shard.AdaptiveCutoff = cutoff
		c.adaptiveSet = true
	}
}

// WithInsertBuffer enables the log-structured insert buffer on a
// sharded handle: Insert (and the insert entries of BatchMutate and the
// Serve stream) appends to a small delta shard that is queried
// alongside the main shards — NN≠0 merged exactly through the merge
// planner, π/E[d] through the cross-shard renormalization — instead of
// rebuilding an owning shard per item. When the buffer crosses the
// flush threshold it drains into the owning shards, which rebuild once:
// one shard rebuild amortized over a threshold's worth of inserts.
// threshold ≤ 0 lets the cost model choose (the minimizer of amortized
// flush cost against per-query buffer-scan overhead). Requires
// WithShards.
func WithInsertBuffer(threshold int) Option {
	return func(c *openConfig) {
		c.shard.InsertBuffer = true
		c.shard.FlushThreshold = threshold
		c.bufferSet = true
	}
}

// WithPlanner replaces the rule-based automatic backend choice with the
// cost-based query planner: per query kind, the cheapest capable backend
// is picked from calibrated build/query cost estimates (a Build-time
// micro-probe by default; see WithCalibration for using a persisted
// table), and the handle serves each kind through its assigned backend —
// possibly a composite, e.g. the two-stage structure for NN≠0, spiral
// search for π, and the expected-distance index for E[d] on one discrete
// dataset. Handle.Explain reports the decision with its cost estimates.
// Combined with WithShards, every shard re-plans at its own size (a
// small shard may keep the cheap-to-rebuild oracle while large ones buy
// the fast structures). Requires the default BackendAuto: the planner
// *is* a backend selection, so pairing it with WithBackend is rejected.
func WithPlanner() Option { return func(c *openConfig) { c.plannerSet = true } }

// WithPlannerMix declares the expected query mix the planner optimizes
// for — relative weights per query kind (only ratios matter; kinds with
// weight 0 still work, they just don't influence the choice). Implies
// WithPlanner.
func WithPlannerMix(nonzero, probs, expected float64) Option {
	return func(c *openConfig) {
		c.plannerSet = true
		c.planner.Mix.Nonzero = nonzero
		c.planner.Mix.Probs = probs
		c.planner.Mix.Expected = expected
	}
}

// WithPlannerTopK adds a top-k query share to the planner's expected mix
// (same relative-weight semantics as WithPlannerMix, composable with
// it in either order). With weight 0 — the default — top-k queries still
// work; they ride the π backend the rest of the mix selects. Implies
// WithPlanner.
func WithPlannerTopK(weight float64) Option {
	return func(c *openConfig) {
		c.plannerSet = true
		c.planner.Mix.TopK = weight
	}
}

// WithAdaptivePlanner turns the cost-based planner into a continuous
// loop: the handle windows its per-kind latency counters and per-shard
// visit counters into EWMA workload profiles, detects drift from the
// installed plan (a shifted query mix, or latencies wandering from the
// estimates the plan was bought on), and then re-plans every shard with
// that shard's *own* observed mix — hot shards amortize over a larger
// horizon and buy expensive structures, cold shards fall back to the
// cheap-to-build oracle — building off the query path and installing
// the new backends with an epoch-fenced atomic swap (in-flight queries
// never see a torn shard). Stats reports the shard temperatures, replan
// count and last drift reason; Handle.Replan triggers one cycle
// manually. Implies WithPlanner and requires WithShards (the loop
// steers per-shard plans). Snapshots persist the temperatures and
// replan history, so a restored handle resumes the loop warm.
func WithAdaptivePlanner() Option {
	return func(c *openConfig) {
		c.plannerSet = true
		c.replanSet = true
		c.run.AdaptiveReplan = &engine.AdaptiveOptions{}
	}
}

// WithCalibration loads the planner's cost-model coefficients from a
// persisted BENCH_engine.json (written by `unnbench -json`) instead of
// micro-probing at Build time. Implies WithPlanner; a missing or
// malformed table fails Open rather than silently planning on defaults.
func WithCalibration(path string) Option {
	return func(c *openConfig) {
		c.plannerSet = true
		cal, err := engine.LoadCalibration(path)
		if err != nil {
			c.calErr = err
			return
		}
		c.planner.Calibration = cal
	}
}

// WithServeBuffer sets the capacity of the answer channel returned by
// Handle.Serve — the stream's backpressure window (default 2×Workers).
func WithServeBuffer(n int) Option { return func(c *openConfig) { c.run.ServeBuffer = n } }

// WithCache enables the engine-level LRU answer cache with the given
// capacity (entries). Quantum sets the grid step used to quantize query
// points into cache keys — queries within one quantum cell share an
// answer; pass 0 to require exact coordinate matches, or any negative
// value to derive the quantum from the built structure itself (the V≠0
// diagram reports a robust minimum of its cell extents, other backends
// the dataset's centroid-spacing estimate — see Handle.Stats for the
// resolved value).
func WithCache(capacity int, quantum float64) Option {
	return func(c *openConfig) {
		c.run.CacheSize = capacity
		c.run.CacheQuantum = quantum
	}
}

// WithAutoCache is WithCache with the adaptive quantum: answer sharing
// at the granularity the built structure reports its answers actually
// change.
func WithAutoCache(capacity int) Option { return WithCache(capacity, -1) }

// WithEps sets the default additive error for approximating probability
// backends when a query passes eps ≤ 0 (default 0.02).
func WithEps(eps float64) Option { return func(c *openConfig) { c.build.Eps = eps } }

// WithMCRounds sets the number of Monte-Carlo instantiations (default 64;
// see MCRounds / MCRoundsPerQuery for the theorem-prescribed counts).
func WithMCRounds(s int) Option { return func(c *openConfig) { c.build.MCRounds = s } }

// WithMCParallel fans Monte-Carlo construction over all CPUs
// (deterministic in the seed).
func WithMCParallel() Option { return func(c *openConfig) { c.build.MCParallel = true } }

// WithSeed fixes the seed of randomized constructions (default 0x6e67).
func WithSeed(seed int64) Option { return func(c *openConfig) { c.build.Seed = seed } }

// WithDiagramOptions tunes V≠0 diagram construction.
func WithDiagramOptions(opt DiagramOptions) Option {
	return func(c *openConfig) { c.build.Diagram = opt }
}

// WithVPrOptions tunes probabilistic-Voronoi construction.
func WithVPrOptions(opt VPrOptions) Option {
	return func(c *openConfig) { c.build.VPr = opt }
}

// WithSpiralQuadtree selects the quadtree branch-and-bound retrieval
// backend for the spiral structure (§4.3 Remark (ii)).
func WithSpiralQuadtree() Option { return func(c *openConfig) { c.build.SpiralQuadtree = true } }

// Handle is a capability-checked handle to one built backend (or
// sharded backend fleet, see WithShards): single queries, parallel
// batches with deterministic result order, an asynchronous Serve stream
// with out-of-order completion and backpressure, and an optional striped
// LRU answer cache (hit/miss counters via CacheStats). All methods are
// safe for concurrent use.
//
// Query kinds the backend does not support return ErrUnsupported
// (checkable with errors.Is). When the cache is enabled, returned
// slices may be shared with it; treat them as read-only.
type Handle struct {
	*engine.Engine
}

// Insert appends uncertain point p to a dynamic (sharded) handle and
// returns its index, always the new Len-1: inserts append. The point
// must match the dataset kind the handle was opened with (e.g. only
// discrete points enter an OpenDiscrete handle — anything else would
// silently shrink the capability set). Monolithic handles return
// ErrImmutable. The mutation routes to the owning shard by centroid,
// rebuilds only the shards the rebalancer touches, and flushes the
// answer cache.
func (h *Handle) Insert(p Uncertain) (int, error) {
	return h.Engine.Insert(engine.Item{Point: p})
}

// InsertSquare is Insert for OpenSquares handles.
func (h *Handle) InsertSquare(s Square) (int, error) {
	return h.Engine.Insert(engine.Item{Square: &s})
}

// Delete removes item i from a dynamic (sharded) handle. Indices stay
// dense: items above i shift down by one, exactly like deleting from a
// slice. Deleting the last remaining item is rejected.
func (h *Handle) Delete(i int) error { return h.Engine.Delete(i) }

// BatchMutate applies a burst of mutations to a dynamic (sharded)
// handle through the epoch-coalesced path: the whole batch runs under
// one write lock with sequential semantics, each shard the burst
// touches rebuilds once (instead of once per mutation), the rebalancer
// runs once at the end, and the answer cache flushes once. The returned
// slice has one entry per mutation — the assigned global index for an
// insert, the live item count right after the op for a delete.
// Validation is atomic: one invalid entry rejects the whole batch
// before anything is applied. Monolithic handles return ErrImmutable.
func (h *Handle) BatchMutate(ms []Mutation) ([]int, error) {
	return h.Engine.BatchMutate(ms)
}

// Mutable reports whether the handle accepts Insert/Delete (true for
// sharded handles, see WithShards).
func (h *Handle) Mutable() bool { return h.Engine.Mutable() }

// Epoch returns the number of mutations applied to a dynamic handle
// (0 for monolithic ones).
func (h *Handle) Epoch() uint64 { return h.Engine.Epoch() }

// ShardCount returns the handle's current number of spatial shards —
// it moves as the dynamic layer splits and merges — or 0 for a
// monolithic handle.
func (h *Handle) ShardCount() int {
	if s, ok := h.Index().(interface{ Shards() int }); ok {
		return s.Shards()
	}
	return 0
}

// Stats is a snapshot of a handle's serving counters: per-query-kind
// latency (count and total/mean nanoseconds — batch and Serve traffic
// funnels through the same counters), cache hits/misses, and the
// effective cache quantum (the resolved value when WithCache was given a
// negative, adaptive quantum).
type Stats = engine.Stats

// KindStats is the latency record of one query kind within Stats.
type KindStats = engine.KindStats

// Stats snapshots the handle's per-kind latency counters and cache
// traffic — the measured side of the planner's cost model (the same
// numbers a calibration table persists).
func (h *Handle) Stats() Stats { return h.Engine.Stats() }

// Explain describes how the handle answers each query kind: for planner
// handles (WithPlanner) the per-kind backend assignment with its
// estimated build and query costs and the beaten alternatives; for
// rule-based auto handles the routing rule; for sharded handles the
// per-shard composition (with each shard's own plan under WithPlanner);
// for plain backends a capability summary. Adaptive handles
// (WithAdaptivePlanner) append the loop's state: window size, replan
// count, last drift reason, and the hottest shard's temperature.
func (h *Handle) Explain() string { return h.Engine.Explain() }

// Replan triggers one replan-and-swap cycle synchronously on an
// adaptive handle (WithAdaptivePlanner) — the manual counterpart of the
// automatic drift trigger: every shard re-plans with its observed mix
// and temperature-scaled horizon, and the new backends install under
// the epoch fence. It reports whether a new plan was installed; false
// with a nil error means a concurrent mutation raced the build (the
// fence aborted the swap — retry when the stream settles) or there was
// nothing to replan. Errors on handles without the adaptive loop.
func (h *Handle) Replan() (bool, error) { return h.Engine.Replan() }

func openDataset(ds *engine.Dataset, opts []Option) (*Handle, error) {
	if err := engine.CheckDataset(ds); err != nil {
		return nil, fmt.Errorf("unn: %w", err)
	}
	cfg := openConfig{backend: BackendAuto}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shardsSet && cfg.shard.Shards < 1 {
		return nil, fmt.Errorf("unn: WithShards needs k ≥ 1, got %d", cfg.shard.Shards)
	}
	if cfg.splitSet && !cfg.shardsSet {
		return nil, fmt.Errorf("unn: WithShardGrid requires WithShards(k) to enable sharding")
	}
	if cfg.adaptiveSet && !cfg.shardsSet {
		return nil, fmt.Errorf("unn: WithShardAdaptive requires WithShards(k) to enable sharding")
	}
	if cfg.bufferSet && !cfg.shardsSet {
		return nil, fmt.Errorf("unn: WithInsertBuffer requires WithShards(k) to enable sharding")
	}
	if cfg.calErr != nil {
		return nil, fmt.Errorf("unn: WithCalibration: %w", cfg.calErr)
	}
	if cfg.plannerSet && cfg.backend != BackendAuto {
		return nil, fmt.Errorf("unn: WithPlanner replaces the backend choice; drop WithBackend(%s)", cfg.backend)
	}
	if cfg.plannerSet && cfg.adaptiveSet {
		return nil, fmt.Errorf("unn: WithPlanner already plans every shard by cost; drop WithShardAdaptive")
	}
	if cfg.replanSet && !cfg.shardsSet {
		return nil, fmt.Errorf("unn: WithAdaptivePlanner requires WithShards(k): the loop replans per shard")
	}
	var (
		ix  engine.Index
		err error
	)
	switch {
	case cfg.plannerSet:
		// The cost-based planner: per query kind, the cheapest capable
		// backend by calibrated estimate (micro-probe or table).
		ix, _, err = engine.BuildPlanned(ds, cfg.build, cfg.shard, cfg.planner)
	case cfg.backend == BackendAuto:
		// Auto picks per dataset kind so no query kind any backend could
		// answer lands on one that cannot: squares → two-stage L∞,
		// discrete → brute (all three kinds exact), continuous/mixed →
		// brute routed together with Monte Carlo for quantification.
		ix, err = engine.BuildAuto(ds, cfg.build, cfg.shard)
	default:
		ix, err = engine.BuildSharded(cfg.backend, ds, cfg.build, cfg.shard)
	}
	if err != nil {
		return nil, err
	}
	return &Handle{engine.NewEngine(ix, cfg.run)}, nil
}

// Open builds the selected backend over generic uncertain points and
// returns its query handle. Discrete and disk specializations are
// detected by type, so backends that need them (diagram, two-stage,
// V_Pr, spiral, expected) work whenever the input is uniformly discrete
// or disk-shaped.
func Open(pts []Uncertain, opts ...Option) (*Handle, error) {
	return openDataset(engine.FromPoints(pts), opts)
}

// OpenDiscrete is Open for discrete uncertain points.
func OpenDiscrete(pts []*Discrete, opts ...Option) (*Handle, error) {
	return openDataset(engine.FromDiscrete(pts), opts)
}

// OpenDisks is Open for disk uncertainty regions.
func OpenDisks(disks []Disk, opts ...Option) (*Handle, error) {
	return openDataset(engine.FromDisks(disks), opts)
}

// OpenSquares is Open for L∞ balls (squares) or L1 diamonds, served by
// the lmetric backends.
func OpenSquares(squares []Square, opts ...Option) (*Handle, error) {
	return openDataset(engine.FromSquares(squares), opts)
}

// --- snapshots ---------------------------------------------------------------

// Snapshot serializes the handle's full built state — dataset, index
// structures (flat kd-tree and kernel arrays as raw slabs), shard
// partition, planner decision with its calibrated cost coefficients,
// and serving configuration — into w, in the versioned binary format
// documented in DESIGN.md §9. OpenSnapshot restores it without
// rebuilding: no geometry recomputation and no calibration probes, so
// loading is an order of magnitude faster than a cold Open.
//
// Only handles over uniform-disk, discrete, or square datasets can be
// snapshotted; continuous distributions (truncated Gaussians,
// histograms) have no serialized form and return an error.
func (h *Handle) Snapshot(w io.Writer) error {
	return engine.WriteSnapshot(w, h.Engine)
}

// OpenSnapshot restores a Handle from a snapshot written by
// Handle.Snapshot. The restored handle answers every query kind
// bit-identically to the snapshotted one (same Explain plan, same
// backends, same cache quantum) and remains fully mutable when the
// original was. Truncated, corrupted, or wrong-version input returns an
// error; it never panics.
func OpenSnapshot(r io.Reader) (*Handle, error) {
	e, err := engine.ReadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("unn: %w", err)
	}
	return &Handle{e}, nil
}

// --- nonzero nearest neighbors (Section 2 & 3) -------------------------------

// NonzeroNN returns NN≠0(q) = {i : π_i(q) > 0} by the exact O(n) oracle
// of Lemma 2.1.
func NonzeroNN(pts []Uncertain, q Point) []int { return nonzero.Brute(pts, q) }

// Diagram is a constructed nonzero Voronoi diagram V≠0(P) with point
// location (Theorem 2.11).
type Diagram = nonzero.Diagram

// DiagramOptions tunes diagram construction.
type DiagramOptions = nonzero.DiagramOptions

// BuildDiskDiagram constructs V≠0 for disk regions (Theorem 2.5).
//
// Deprecated: use OpenDisks(disks, WithBackend(BackendDiagram)); the
// engine handle adds batching, caching and capability checks.
func BuildDiskDiagram(disks []Disk, opt DiagramOptions) (*Diagram, error) {
	return nonzero.BuildDiskDiagram(disks, opt)
}

// BuildDiscreteDiagram constructs V≠0 for discrete points (Theorem 2.14).
//
// Deprecated: use OpenDiscrete(pts, WithBackend(BackendDiagram)).
func BuildDiscreteDiagram(pts []*Discrete, opt DiagramOptions) (*Diagram, error) {
	return nonzero.BuildDiscreteDiagram(pts, opt)
}

// DiskComplexity is the exact vertex census of V≠0 for disk regions.
type DiskComplexity = nonzero.DiskComplexity

// CountDiskComplexity counts breakpoints and curve crossings of V≠0(P)
// exactly in the polar parameterization (Theorems 2.5–2.10 experiments).
func CountDiskComplexity(disks []Disk, grid int) DiskComplexity {
	return nonzero.CountDiskComplexity(disks, nonzero.GammaOptions{}, grid)
}

// TwoStageDisks is the near-linear NN≠0 structure for disks (Thm 3.1).
type TwoStageDisks = nonzero.TwoStageDisks

// NewTwoStageDisks preprocesses disks for NN≠0 queries.
//
// Deprecated: use OpenDisks(disks, WithBackend(BackendTwoStageDisks)).
func NewTwoStageDisks(disks []Disk) *TwoStageDisks { return nonzero.NewTwoStageDisks(disks) }

// TwoStageDiscrete is the near-linear NN≠0 structure for discrete points
// (Theorem 3.2).
type TwoStageDiscrete = nonzero.TwoStageDiscrete

// NewTwoStageDiscrete preprocesses discrete points for NN≠0 queries.
//
// Deprecated: use OpenDiscrete(pts, WithBackend(BackendTwoStageDiscrete)).
func NewTwoStageDiscrete(pts []*Discrete) *TwoStageDiscrete {
	return nonzero.NewTwoStageDiscrete(pts)
}

// --- quantification probabilities (Section 4) --------------------------------

// Prob is a sparse (index, probability) result entry.
type Prob = quantify.Prob

// ExactProbabilities evaluates π_i(q) for all i exactly (Eq. (2)).
func ExactProbabilities(pts []*Discrete, q Point) []float64 {
	return quantify.ExactAt(pts, q)
}

// VPr is the exact probabilistic Voronoi diagram (§4.1, Theorem 4.2).
type VPr = quantify.VPr

// VPrOptions tunes V_Pr construction.
type VPrOptions = quantify.VPrOptions

// BuildVPr constructs the exact probabilistic Voronoi diagram.
//
// Deprecated: use OpenDiscrete(pts, WithBackend(BackendVPr)).
func BuildVPr(pts []*Discrete, opt VPrOptions) (*VPr, error) {
	return quantify.BuildVPr(pts, opt)
}

// MonteCarlo is the randomized structure of Theorem 4.3/4.5.
type MonteCarlo = quantify.MonteCarlo

// MCOptions configures Monte-Carlo construction.
type MCOptions = quantify.MCOptions

// NewMonteCarlo builds a Monte-Carlo index with s instantiations.
//
// Deprecated: use Open(pts, WithBackend(BackendMonteCarlo),
// WithMCRounds(s)).
func NewMonteCarlo(pts []Uncertain, s int, opt MCOptions) (*MonteCarlo, error) {
	return quantify.NewMonteCarlo(pts, s, opt)
}

// MCRounds returns the round count prescribed by Theorem 4.3 for a
// uniform (all queries) ε/δ guarantee.
func MCRounds(n, k int, eps, delta float64) int { return quantify.Rounds(n, k, eps, delta) }

// MCRoundsPerQuery returns the per-query round count (Chernoff only).
func MCRoundsPerQuery(n int, eps, delta float64) int {
	return quantify.RoundsEmpirical(n, eps, delta)
}

// Spiral is the deterministic structure of Theorem 4.7.
type Spiral = quantify.Spiral

// NewSpiral preprocesses discrete points for spiral-search queries.
//
// Deprecated: use OpenDiscrete(pts, WithBackend(BackendSpiral)).
func NewSpiral(pts []*Discrete) (*Spiral, error) { return quantify.NewSpiral(pts) }

// Threshold returns the points whose estimated π_i(q) is at least tau
// (the probabilistic threshold query of [DYM+05]).
func Threshold(est quantify.Estimator, q Point, tau float64) []Prob {
	return quantify.Threshold(est, q, tau)
}

// TopK returns the k most probable nearest neighbors.
func TopK(est quantify.Estimator, q Point, k int, eps float64) []Prob {
	return quantify.TopK(est, q, k, eps)
}

// SpiralEstimator adapts a Spiral to the Threshold/TopK interface.
type SpiralEstimator = quantify.SpiralEstimator

// MCEstimator adapts a MonteCarlo index to the Threshold/TopK interface.
type MCEstimator = quantify.MCEstimator

// HandleEstimator adapts any probability-capable Handle to the
// Threshold/TopK interface.
type HandleEstimator struct{ H *Handle }

// Estimate implements quantify.Estimator; errors (capability or
// otherwise) surface as an empty estimate.
func (he HandleEstimator) Estimate(q Point, eps float64) []Prob {
	ps, err := he.H.QueryProbs(q, eps)
	if err != nil {
		return nil
	}
	return ps
}

// --- expected-distance semantics ([AESZ12]) ----------------------------------

// ExpectedIndex answers expected-distance NN queries (the PODS 2012
// companion semantics).
type ExpectedIndex = expected.Index

// NewExpectedIndex builds an expected-distance NN index.
//
// Deprecated: use OpenDiscrete(pts, WithBackend(BackendExpected)).
func NewExpectedIndex(pts []*Discrete) (*ExpectedIndex, error) { return expected.New(pts) }

// TrapQuerier answers Diagram queries via a randomized-incremental
// trapezoidal map ([dBCKO08 Ch. 6]) — the literal point-location
// structure of Theorem 2.11.
type TrapQuerier = nonzero.TrapQuerier

// NewTrapQuerier builds the trapezoidal-map querier over a diagram.
func NewTrapQuerier(d *Diagram, rng *rand.Rand) (*TrapQuerier, error) {
	return nonzero.NewTrapQuerier(d, rng)
}

// NewSpiralContinuous builds a spiral-search structure over continuous
// uncertain points via the Theorem 4.5 discretization — the engineering
// answer to the paper's open problem (iii). It returns the structure and
// the discretized points (needed for exact re-evaluation).
func NewSpiralContinuous(pts []Uncertain, perPoint int, rng *rand.Rand) (*Spiral, []*Discrete, error) {
	return quantify.NewSpiralContinuous(pts, perPoint, rng)
}

// NewMonteCarloParallel is NewMonteCarlo with construction fanned out
// over all CPUs; results are deterministic in the seed.
//
// Deprecated: use Open(pts, WithBackend(BackendMonteCarlo),
// WithMCRounds(s), WithMCParallel()).
func NewMonteCarloParallel(pts []Uncertain, s int, opt MCOptions) (*MonteCarlo, error) {
	return quantify.NewMonteCarloParallel(pts, s, opt)
}

// --- L1 / L∞ metrics (remark after Theorem 3.1) ------------------------------

// Square is an L∞ ball (axis-aligned square) or, under the L1 API, a
// diamond: center plus radius.
type Square = lmetric.Square

// TwoStageLinf answers NN≠0 queries over square uncertainty regions
// under the Chebyshev metric.
type TwoStageLinf = lmetric.TwoStageLinf

// NewTwoStageLinf preprocesses square regions for L∞ NN≠0 queries.
//
// Deprecated: use OpenSquares(squares, WithBackend(BackendTwoStageLinf)).
func NewTwoStageLinf(squares []Square) *TwoStageLinf { return lmetric.NewTwoStageLinf(squares) }

// TwoStageL1 answers NN≠0 queries over diamond regions under the
// Manhattan metric (via the 45° reduction to L∞).
type TwoStageL1 = lmetric.TwoStageL1

// NewTwoStageL1 preprocesses diamond regions for L1 NN≠0 queries.
//
// Deprecated: use OpenSquares(diamonds, WithBackend(BackendTwoStageL1)).
func NewTwoStageL1(diamonds []Square) *TwoStageL1 { return lmetric.NewTwoStageL1(diamonds) }

// NewSpiralQuadtree is NewSpiral with the quadtree branch-and-bound
// retrieval backend suggested in §4.3 Remark (ii) ([Har11]).
//
// Deprecated: use OpenDiscrete(pts, WithBackend(BackendSpiral),
// WithSpiralQuadtree()).
func NewSpiralQuadtree(pts []*Discrete) (*Spiral, error) {
	return quantify.NewSpiralQuadtree(pts)
}
