// Package engine is the unified query-execution layer: every index
// structure of the library — the Lemma 2.1 oracle, the V≠0 diagrams
// (Theorems 2.5/2.14), the two-stage structures (Theorems 3.1/3.2 and
// their L∞/L1 variants), the probabilistic Voronoi diagram V_Pr
// (Theorem 4.2), the Monte-Carlo index (Theorems 4.3/4.5), the spiral
// search (Theorem 4.7) and the expected-distance index ([AESZ12]) —
// adapts to one Index interface, so a single driver can build any
// backend, fan a query stream across a worker pool, and cache answers.
//
// The registered query kinds mirror the query semantics of the papers:
//
//   - QueryNonzero: NN≠0(q), the indices with π_i(q) > 0 (Section 2/3);
//   - QueryProbs: sparse quantification probabilities π_i(q) (Section 4);
//   - QueryExpected: the expected-distance NN (the [AESZ12] semantics);
//   - QueryTopK: the k most-likely nearest neighbors ranked by π_i(q)
//     (the NNU-II top-k semantics), derived from any π-capable backend.
//
// Each kind is one entry of the kind registry (kinds.go): its capability
// bit, cost-model term, cache-key canonicalization, Stats slot and
// dispatch all come from the registry, so a new kind is one registry
// entry plus its backend implementations. A backend implements the
// subset it supports and reports the rest through Capabilities;
// unsupported kinds return ErrUnsupported.
package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"unn/internal/geom"
	"unn/internal/lmetric"
	"unn/internal/quantify"
	"unn/internal/uncertain"
)

// Capability is a bitmask of the query kinds a backend supports.
// Capabilities may depend on the dataset (e.g. the brute backend answers
// QueryProbs only for discrete inputs), so they are authoritative only
// after Build.
type Capability uint8

const (
	// CapNonzero marks support for NN≠0 queries.
	CapNonzero Capability = 1 << iota
	// CapProbs marks support for quantification-probability queries.
	CapProbs
	// CapExpected marks support for expected-distance NN queries.
	CapExpected
	// CapTopK marks support for top-k most-likely-NN queries (ranking by
	// π, so every π-capable backend supports it).
	CapTopK
)

// The QueryKind names alias the capability bits when one is used as a
// Request.Kind: a registered kind IS its capability bit, so the same
// value both selects the query method and gates it per backend.
const (
	// QueryKindNonzero requests NN≠0(q) (Lemma 2.1 semantics).
	QueryKindNonzero = CapNonzero
	// QueryKindProbs requests the quantification probabilities π_i(q).
	QueryKindProbs = CapProbs
	// QueryKindExpected requests the expected-distance NN ([AESZ12]).
	QueryKindExpected = CapExpected
	// QueryKindTopK requests the top-k most-likely-NN query (NNU-II
	// semantics): the k indices with the largest π_i(q), ranked by
	// probability descending with index-ascending tie-break.
	QueryKindTopK = CapTopK
)

// Has reports whether c includes all capabilities in want.
func (c Capability) Has(want Capability) bool { return c&want == want }

// String renders the capability set in registry order.
func (c Capability) String() string {
	var parts []string
	for i := range kindTable {
		if c.Has(kindTable[i].cap) {
			parts = append(parts, kindTable[i].name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// ErrUnsupported is returned by a query method the backend does not
// support (for its dataset).
var ErrUnsupported = errors.New("engine: query kind unsupported by backend")

// ErrInvalidInput is returned by a query method given an input no
// answer can be correct for: a query point with a NaN or ±Inf
// coordinate (Lemma 2.1 compares distances, and every comparison with
// NaN is false, so such a point would silently get an empty NN≠0 set),
// or a NaN or ±Inf eps.
var ErrInvalidInput = errors.New("engine: invalid input")

// checkQuery returns ErrInvalidInput unless q has finite coordinates.
func checkQuery(q geom.Point) error {
	if !finitePt(q) {
		return fmt.Errorf("%w: query point (%v, %v) is not finite", ErrInvalidInput, q.X, q.Y)
	}
	return nil
}

// checkEps returns ErrInvalidInput for a NaN or ±Inf accuracy knob:
// the approximating backends would turn it into a garbage or clamped
// round count and answer a truncated π vector. A finite eps ≤ 0 still
// selects the backend's default.
func checkEps(eps float64) error {
	if !finite(eps) {
		return fmt.Errorf("%w: eps %v is not finite", ErrInvalidInput, eps)
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// finitePt reports whether both coordinates of p are finite.
func finitePt(p geom.Point) bool { return finite(p.X) && finite(p.Y) }

// checkRegion returns ErrInvalidInput unless a disk or square region has
// a finite centre and a finite, non-negative radius. A NaN radius makes
// every distance comparison false, so the region would silently never
// be reported (and its block never scanned); a negative one inverts its
// bounding box.
func checkRegion(kind string, c geom.Point, r float64) error {
	if !finitePt(c) || !finite(r) || r < 0 {
		return fmt.Errorf("%w: %s at (%v, %v) with radius %v needs a finite centre and a finite radius ≥ 0",
			ErrInvalidInput, kind, c.X, c.Y, r)
	}
	return nil
}

// checkPoint validates one uncertain point's region: disk-shaped points
// by centre and radius, discrete points by every location, anything
// else by a finite, non-inverted support box.
func checkPoint(p uncertain.Point) error {
	if p == nil {
		return fmt.Errorf("%w: nil uncertain point", ErrInvalidInput)
	}
	if d, ok := diskOf(p); ok {
		return checkRegion("disk", d.C, d.R)
	}
	if d, ok := p.(*uncertain.Discrete); ok {
		for _, l := range d.Locs {
			if !finitePt(l) {
				return fmt.Errorf("%w: discrete location (%v, %v) is not finite", ErrInvalidInput, l.X, l.Y)
			}
		}
		return nil
	}
	if b := p.Support(); !finitePt(b.Min) || !finitePt(b.Max) || b.Min.X > b.Max.X || b.Min.Y > b.Max.Y {
		return fmt.Errorf("%w: %T has support %v", ErrInvalidInput, p, b)
	}
	return nil
}

// CheckDataset returns an error wrapping ErrInvalidInput for the
// lowest-indexed item of ds whose region no answer can be correct for:
// a non-finite centre or location, or a NaN, ±Inf or negative radius.
func CheckDataset(ds *Dataset) error {
	for i := range ds.Squares {
		if err := checkRegion("square", ds.Squares[i].C, ds.Squares[i].R); err != nil {
			return fmt.Errorf("engine: item %d: %w", i, err)
		}
	}
	for i, p := range ds.Points {
		if err := checkPoint(p); err != nil {
			return fmt.Errorf("engine: item %d: %w", i, err)
		}
	}
	return nil
}

// checkBatch applies checkQuery to every point of a batch before any is
// answered, reporting the lowest failing index like every batch error.
func checkBatch(qs []geom.Point) error {
	for i, q := range qs {
		if err := checkQuery(q); err != nil {
			return fmt.Errorf("engine: batch query %d: %w", i, err)
		}
	}
	return nil
}

// Dataset is the uniform input handed to every backend's Build. Points
// is always populated; the specialized views are filled in when the
// input admits them (all-discrete, all-disk, squares) and backends that
// need a specialization error out when it is absent.
type Dataset struct {
	// Points is the generic uncertain-point view (always non-empty).
	Points []uncertain.Point
	// Discrete is set iff every point is a *uncertain.Discrete.
	Discrete []*uncertain.Discrete
	// Disks is set iff every point is a disk uncertainty region
	// (uncertain.UniformDisk or *uncertain.TruncGauss: NN≠0 depends only
	// on the region, see the remark after Eq. (3)).
	Disks []geom.Disk
	// Squares is set only by FromSquares, for the L∞/L1 backends.
	Squares []lmetric.Square
}

// N returns the number of uncertain points.
func (ds *Dataset) N() int {
	if len(ds.Points) > 0 {
		return len(ds.Points)
	}
	return len(ds.Squares)
}

// FromPoints builds a Dataset from generic uncertain points, detecting
// the discrete and disk specializations by type.
func FromPoints(pts []uncertain.Point) *Dataset {
	ds := &Dataset{Points: pts}
	discrete := make([]*uncertain.Discrete, 0, len(pts))
	disks := make([]geom.Disk, 0, len(pts))
	for _, p := range pts {
		switch v := p.(type) {
		case *uncertain.Discrete:
			discrete = append(discrete, v)
		case uncertain.UniformDisk:
			disks = append(disks, v.D)
		case *uncertain.TruncGauss:
			disks = append(disks, v.D)
		}
	}
	if len(discrete) == len(pts) {
		ds.Discrete = discrete
	}
	if len(disks) == len(pts) {
		ds.Disks = disks
	}
	return ds
}

// FromDiscrete builds a Dataset from discrete uncertain points.
func FromDiscrete(pts []*uncertain.Discrete) *Dataset {
	gen := make([]uncertain.Point, len(pts))
	for i, p := range pts {
		gen[i] = p
	}
	return &Dataset{Points: gen, Discrete: pts}
}

// FromDisks builds a Dataset from disk uncertainty regions (uniform pdf;
// the pdf is irrelevant for NN≠0 queries).
func FromDisks(disks []geom.Disk) *Dataset {
	gen := make([]uncertain.Point, len(disks))
	for i, d := range disks {
		gen[i] = uncertain.UniformDisk{D: d}
	}
	return &Dataset{Points: gen, Disks: disks}
}

// FromSquares builds a Dataset of L∞ balls (or L1 diamonds) for the
// lmetric backends. Only the square-aware backends accept it.
func FromSquares(squares []lmetric.Square) *Dataset {
	return &Dataset{Squares: squares}
}

// Index is the common interface every adapted structure satisfies.
// Build must be called exactly once before any query; Capabilities is
// authoritative after Build. All query methods must be safe for
// concurrent use after Build (the batch executor relies on it).
type Index interface {
	// Name identifies the backend (stable, machine-readable).
	Name() string
	// Capabilities reports the supported query kinds for the built
	// dataset.
	Capabilities() Capability
	// Build constructs the underlying structure for ds.
	Build(ds *Dataset) error
	// QueryNonzero returns NN≠0(q), sorted ascending.
	QueryNonzero(q geom.Point) ([]int, error)
	// QueryProbs returns sparse quantification probabilities, sorted by
	// index. eps is the per-entry additive error knob for approximating
	// backends (≤ 0 selects the backend's build-time default); exact
	// backends ignore it.
	QueryProbs(q geom.Point, eps float64) ([]quantify.Prob, error)
	// QueryExpected returns the expected-distance NN and its expected
	// distance.
	QueryExpected(q geom.Point) (int, float64, error)
}

// Backend names an adapted structure.
type Backend string

// The adapted backends.
const (
	BackendBrute            Backend = "brute"             // Lemma 2.1 oracle + Eq. (2) sweep
	BackendDiagram          Backend = "diagram"           // V≠0 diagram, Thm 2.5/2.14 + 2.11
	BackendTwoStageDisks    Backend = "twostage-disks"    // Thm 3.1
	BackendTwoStageDiscrete Backend = "twostage-discrete" // Thm 3.2
	BackendVPr              Backend = "vpr"               // Thm 4.2
	BackendMonteCarlo       Backend = "montecarlo"        // Thm 4.3/4.5
	BackendSpiral           Backend = "spiral"            // Thm 4.7
	BackendExpected         Backend = "expected"          // [AESZ12]
	BackendTwoStageLinf     Backend = "twostage-linf"     // Thm 3.1 remark, L∞
	BackendTwoStageL1       Backend = "twostage-l1"       // Thm 3.1 remark, L1
)

// Backends lists every adapted backend in registry order.
func Backends() []Backend {
	return []Backend{
		BackendBrute, BackendDiagram, BackendTwoStageDisks,
		BackendTwoStageDiscrete, BackendVPr, BackendMonteCarlo,
		BackendSpiral, BackendExpected, BackendTwoStageLinf,
		BackendTwoStageL1,
	}
}

// NewIndex returns an unbuilt Index for the named backend.
func NewIndex(b Backend, opt BuildOptions) (Index, error) {
	opt = opt.withDefaults()
	switch b {
	case BackendBrute:
		return &bruteIndex{opt: opt}, nil
	case BackendDiagram:
		return &diagramIndex{opt: opt}, nil
	case BackendTwoStageDisks:
		return &twoStageDisksIndex{}, nil
	case BackendTwoStageDiscrete:
		return &twoStageDiscreteIndex{}, nil
	case BackendVPr:
		return &vprIndex{opt: opt}, nil
	case BackendMonteCarlo:
		return &monteCarloIndex{opt: opt}, nil
	case BackendSpiral:
		return &spiralIndex{opt: opt}, nil
	case BackendExpected:
		return &expectedIndex{}, nil
	case BackendTwoStageLinf:
		return &linfIndex{}, nil
	case BackendTwoStageL1:
		return &l1Index{}, nil
	default:
		return nil, fmt.Errorf("engine: unknown backend %q", b)
	}
}

// Build constructs a ready-to-query Index for the named backend. The
// returned index carries a cache-quantum hint (see Options.CacheQuantum):
// backends with real cell geometry report their own, everything else
// falls back to the dataset-spacing estimate.
func Build(b Backend, ds *Dataset, opt BuildOptions) (Index, error) {
	return buildHinted(b, ds, opt, func() float64 { return autoQuantum(ds) })
}

// buildHinted is Build with the dataset-spacing estimate supplied by
// spacing, which runs only when the backend has no hint of its own — a
// composite hands every part the same memoized estimate.
func buildHinted(b Backend, ds *Dataset, opt BuildOptions, spacing func() float64) (Index, error) {
	ix, err := NewIndex(b, opt)
	if err != nil {
		return nil, err
	}
	if err := ix.Build(ds); err != nil {
		return nil, fmt.Errorf("engine: build %s: %w", b, err)
	}
	return withQuantumHint(ix, ds, spacing), nil
}

// hintedIndex attaches the dataset-derived cache-quantum hint and the
// dataset size to a built adapter; every Index method is forwarded by
// embedding.
type hintedIndex struct {
	Index
	hint float64
	n    int
	// ds is the built dataset, retained for snapshot export (the adapters
	// behind the wrapper do not all keep a handle to it).
	ds *Dataset
}

// QuantumHint implements quantumHinter.
func (h hintedIndex) QuantumHint() float64 { return h.hint }

// Len reports the dataset size (Engine.ObserveInto reads it to fit
// latency observations back into the cost model).
func (h hintedIndex) Len() int { return h.n }

// withQuantumHint wraps the built ix with its cache-quantum hint — the
// adapter's own (computed from built geometry, e.g. the diagram's slab
// widths) when it has one, the dataset-spacing estimate spacing()
// otherwise — plus the dataset size for the latency-observation
// feedback loop.
func withQuantumHint(ix Index, ds *Dataset, spacing func() float64) Index {
	h := hintedIndex{Index: ix, n: ds.N(), ds: ds}
	if qh, ok := ix.(quantumHinter); ok {
		if q := qh.QuantumHint(); q > 0 {
			h.hint = q
			return h
		}
	}
	h.hint = spacing()
	return h
}
