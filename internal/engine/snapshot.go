// Snapshot export/import: persist a built Engine into the
// internal/snapshot container and reassemble it without rebuilding.
//
// The format splits cleanly along the hot/cold axis of the engine's
// state. Bulk geometry — the dataset rows in SoA form and every
// kdtree.FlatTree of the two-stage structures, written as raw
// little-endian slabs — restores zero-copy: decoded arrays are adopted
// by kernel.Flat mirrors and kdtree.FlatFromSlab without another pass.
// Small configuration — shard partition, chosen backends, the planner
// Plan and its cost-model coefficients, cache quantum, insert-buffer
// epoch state — rides in one JSON meta section, where versioned-struct
// evolution is cheap. Backends with no flat representation (diagram,
// V_Pr, Monte Carlo, spiral, expected) are rebuilt from the restored
// dataset on load; their sections carry snapshot.FlagRebuilt so the
// section table records exactly what restores zero-copy and what does
// not.
package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"unn/internal/geom"
	"unn/internal/kdtree"
	"unn/internal/kernel"
	"unn/internal/lmetric"
	"unn/internal/nonzero"
	"unn/internal/snapshot"
	"unn/internal/uncertain"
)

// Section ids of the snapshot container.
const (
	secMeta      uint32 = 1
	secDataset   uint32 = 2
	secBuffer    uint32 = 3
	secTop       uint32 = 4
	secShardBase uint32 = 0x100 // shard i lives in section secShardBase+i
)

// Dataset family tags of the dataset section.
const (
	dsKindDisks uint8 = iota
	dsKindDiscrete
	dsKindSquares
)

// --- meta section (JSON) ----------------------------------------------------

// snapChoice is one planner decision (Plan.Choices entry).
type snapChoice struct {
	Kind       uint8
	Backend    string
	QueryNs    float64
	BuildNs    float64
	RunnerUp   string
	RunnerUpNs float64
}

// snapPlan is a Plan. TopK (format version 2) is the top-k mix share;
// version-1 files leave it absent and it unmarshals to 0 — the exact
// mix a version-1 planner ran with.
type snapPlan struct {
	N        int
	Nonzero  float64
	Probs    float64
	Expected float64
	TopK     float64 `json:",omitempty"`
	Horizon  float64
	Probed   bool
	Choices  []snapChoice
}

// snapIndexMeta describes one index component; its binary payload (kd
// slabs) lives in the owning section, consumed in meta order.
type snapIndexMeta struct {
	// Kind: "brute" (no payload), "kd" (one tree slab), "kd2" (two tree
	// slabs), "rebuild" (no payload; reconstructed from the dataset),
	// "planned" / "routed" (composite; Parts' payloads follow in order).
	Kind    string
	Backend string  `json:",omitempty"`
	Hinted  bool    `json:",omitempty"`
	Hint    float64 `json:",omitempty"`
	N       int     `json:",omitempty"`
	Plan    *snapPlan
	Parts   []snapIndexMeta `json:",omitempty"`
}

// snapCoef is one cost-model coefficient.
type snapCoef struct {
	Backend string
	Op      uint8
	Coef    float64
}

// snapShard is the per-shard meta row (the binary payload is the shard's
// own section).
type snapShard struct {
	Items int
	Index *snapIndexMeta
	// Rates is the shard's observed per-kind EWMA visit rates (registry
	// slot order) — the adaptive loop's workload profile, whose sum is
	// the shard temperature. Present since format version 3, and only
	// for shards that saw traffic under an adaptive engine; absent rows
	// restore cold.
	Rates []float64 `json:",omitempty"`
}

// snapPlanner is the BuildPlanned configuration (PlannerOptions minus
// the calibration table, which the persisted model coefficients carry).
type snapPlanner struct {
	Nonzero       float64
	Probs         float64
	Expected      float64
	TopK          float64 `json:",omitempty"` // format version 2
	Horizon       float64
	RandomPenalty float64
	Probed        bool
}

// snapRun is the Engine-level serving state.
type snapRun struct {
	Workers      int
	CacheSize    int
	ServeBuffer  int
	CacheQuantum float64 // configured knob (negative = adaptive)
	QuantumBits  uint64  // resolved effective quantum (float64 bits)
	Adaptive     bool
	// Replan is the adaptive replanning loop's configuration and history
	// (format version 3; absent on older files and for engines without
	// the loop, which restore with it disabled).
	Replan *snapReplan `json:",omitempty"`
}

// snapReplan persists Options.AdaptiveReplan plus the loop's replan
// history, so a restored handle resumes the loop warm.
type snapReplan struct {
	Window     int
	ErrFactor  float64
	MixDelta   float64
	Cooldown   int
	Replans    uint64 `json:",omitempty"`
	LastReason string `json:",omitempty"`
}

// snapMeta is the JSON meta section.
type snapMeta struct {
	Family      string // "sharded" | "plain"
	Sub         string `json:",omitempty"` // sharded factory: "named" | "auto" | "planned"
	Name        string `json:",omitempty"`
	Backend     string `json:",omitempty"`
	Metric      uint8
	N           int
	DatasetKind uint8
	Epoch       uint64 `json:",omitempty"`
	Target      int    `json:",omitempty"`
	PlanNote    string `json:",omitempty"`
	HasBuffer   bool   `json:",omitempty"`
	BufInserts  uint64 `json:",omitempty"`
	BufFlushes  uint64 `json:",omitempty"`
	Shard       ShardOptions
	Build       BuildOptions
	Planner     *snapPlanner   `json:",omitempty"`
	Model       []snapCoef     `json:",omitempty"`
	Shards      []snapShard    `json:",omitempty"`
	Top         *snapIndexMeta `json:",omitempty"`
	Run         snapRun
}

func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", snapshot.ErrCorrupt, fmt.Sprintf(format, args...))
}

// --- export -----------------------------------------------------------------

// WriteSnapshot serializes the engine's full state (index, dataset,
// planner, serving configuration) into w. Only engines over datasets
// with a uniform flat family (all-disk, all-discrete, or squares) can be
// snapshotted; continuous (truncated-Gaussian) and mixed datasets return
// an error because their per-point distributions have no serialized
// form.
func WriteSnapshot(w io.Writer, e *Engine) error {
	meta := &snapMeta{Run: snapRun{
		Workers:      e.opt.Workers,
		CacheSize:    e.opt.CacheSize,
		ServeBuffer:  e.opt.ServeBuffer,
		CacheQuantum: e.opt.CacheQuantum,
		QuantumBits:  e.quantum.Load(),
		Adaptive:     e.adaptive,
	}}
	if ap := e.adapt; ap != nil {
		replans, reason := ap.replanStats()
		meta.Run.Replan = &snapReplan{
			Window:     ap.opt.Window,
			ErrFactor:  ap.opt.Drift.ErrFactor,
			MixDelta:   ap.opt.Drift.MixDelta,
			Cooldown:   ap.opt.Cooldown,
			Replans:    replans,
			LastReason: reason,
		}
	}
	var sw snapshot.Writer
	var err error
	if sx, ok := e.ix.(*ShardedIndex); ok {
		err = exportSharded(&sw, meta, sx)
	} else {
		err = exportPlain(&sw, meta, e.ix)
	}
	if err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	sw.Add(secMeta, 0, mb)
	if _, err := sw.WriteTo(w); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	return nil
}

// exportSharded serializes a ShardedIndex under its read lock: dataset
// section, one section per shard (ids + bbox + backend payload), and the
// insert-buffer section.
func exportSharded(sw *snapshot.Writer, meta *snapMeta, sx *ShardedIndex) error {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	if sx.broken != nil {
		return fmt.Errorf("index is poisoned: %w", sx.broken)
	}
	meta.Family = "sharded"
	meta.Name = sx.name
	meta.Backend = string(sx.backend)
	meta.Metric = uint8(sx.metric)
	meta.N = sx.n
	meta.Epoch = sx.epoch
	meta.Target = sx.target
	meta.PlanNote = sx.planNote
	meta.Shard = sx.opt
	meta.Build = sx.bopt
	meta.BufInserts = sx.bufInserts
	meta.BufFlushes = sx.bufFlushes
	switch {
	case sx.backend != "":
		meta.Sub = "named"
	case sx.popt != nil:
		meta.Sub = "planned"
		meta.Planner = &snapPlanner{
			Nonzero:       sx.popt.Mix.Nonzero,
			Probs:         sx.popt.Mix.Probs,
			Expected:      sx.popt.Mix.Expected,
			TopK:          sx.popt.Mix.TopK,
			Horizon:       sx.popt.Horizon,
			RandomPenalty: sx.popt.RandomPenalty,
			Probed:        sx.probed,
		}
	default:
		meta.Sub = "auto"
	}
	if sx.model != nil {
		meta.Model = coefsFromCalibration(sx.model.Coefficients())
	}
	payload, dk, err := encodeDataset(sx.ds)
	if err != nil {
		return err
	}
	meta.DatasetKind = dk
	sw.Add(secDataset, 0, payload)

	for si, s := range sx.shards {
		sm := snapShard{Items: len(s.ids)}
		if t := s.temp(); t > 0 {
			sm.Rates = make([]float64, numKinds)
			for i := 0; i < numKinds; i++ {
				sm.Rates[i] = s.rate(i)
			}
		}
		var enc snapshot.Enc
		encodeIDsBBox(&enc, s.ids, s.bbox)
		flags := uint32(0)
		if s.ix != nil {
			im, err := exportIndexMeta(s.ix)
			if err != nil {
				return err
			}
			if err := exportIndexPayload(&enc, s.ix); err != nil {
				return err
			}
			if containsRebuild(im) {
				flags |= snapshot.FlagRebuilt
			}
			sm.Index = im
		}
		sw.Add(secShardBase+uint32(si), flags, enc.Bytes())
		meta.Shards = append(meta.Shards, sm)
	}
	if sx.buf != nil {
		meta.HasBuffer = true
		var enc snapshot.Enc
		encodeIDsBBox(&enc, sx.buf.ids, sx.buf.bbox)
		flags := uint32(0)
		if len(sx.buf.ids) > 0 {
			// The buffer's backend is small by construction (bounded by the
			// flush threshold) and is rebuilt on restore.
			flags |= snapshot.FlagRebuilt
		}
		sw.Add(secBuffer, flags, enc.Bytes())
	}
	return nil
}

// exportPlain serializes an unsharded index (hinted adapter, planned
// composite, or auto-routed composite).
func exportPlain(sw *snapshot.Writer, meta *snapMeta, ix Index) error {
	ds, err := datasetOf(ix)
	if err != nil {
		return err
	}
	meta.Family = "plain"
	meta.N = ds.N()
	meta.Build = buildOptsOf(ix)
	payload, dk, err := encodeDataset(ds)
	if err != nil {
		return err
	}
	meta.DatasetKind = dk
	sw.Add(secDataset, 0, payload)
	im, err := exportIndexMeta(ix)
	if err != nil {
		return err
	}
	var enc snapshot.Enc
	if err := exportIndexPayload(&enc, ix); err != nil {
		return err
	}
	flags := uint32(0)
	if containsRebuild(im) {
		flags |= snapshot.FlagRebuilt
	}
	sw.Add(secTop, flags, enc.Bytes())
	meta.Top = im
	return nil
}

// datasetOf recovers the built dataset from an unsharded index.
func datasetOf(ix Index) (*Dataset, error) {
	switch v := ix.(type) {
	case hintedIndex:
		return v.ds, nil
	case *plannedIndex:
		return v.ds, nil
	case *routedIndex:
		return v.ds, nil
	}
	return nil, fmt.Errorf("cannot snapshot index type %T", ix)
}

// buildOptsOf recovers the BuildOptions the index was built with (used
// by the rebuild-on-restore fallback and future shard factories).
func buildOptsOf(ix Index) BuildOptions {
	if h, ok := ix.(hintedIndex); ok {
		return buildOptsOf(h.Index)
	}
	switch v := ix.(type) {
	case *bruteIndex:
		return v.opt
	case *diagramIndex:
		return v.opt
	case *vprIndex:
		return v.opt
	case *monteCarloIndex:
		return v.opt
	case *spiralIndex:
		return v.opt
	case *plannedIndex:
		return v.buildOpts
	case *routedIndex:
		if len(v.parts) > 0 {
			return buildOptsOf(v.parts[0])
		}
	}
	return BuildOptions{}
}

// encodeDataset writes the dataset rows in SoA form: the exact arrays
// the kernel.Flat mirror holds, so restore adopts them without a
// conversion pass.
func encodeDataset(ds *Dataset) ([]byte, uint8, error) {
	var e snapshot.Enc
	switch {
	case ds.Squares != nil:
		n := len(ds.Squares)
		cx, cy, r := make([]float64, n), make([]float64, n), make([]float64, n)
		for i, s := range ds.Squares {
			cx[i], cy[i], r[i] = s.C.X, s.C.Y, s.R
		}
		e.U8(dsKindSquares)
		e.F64s(cx)
		e.F64s(cy)
		e.F64s(r)
		return e.Bytes(), dsKindSquares, nil
	case ds.Discrete != nil:
		off := make([]int32, 1, len(ds.Discrete)+1)
		var xs, ys, w []float64
		for _, p := range ds.Discrete {
			for a, l := range p.Locs {
				xs = append(xs, l.X)
				ys = append(ys, l.Y)
				w = append(w, p.W[a])
			}
			off = append(off, int32(len(xs)))
		}
		e.U8(dsKindDiscrete)
		e.I32s(off)
		e.F64s(xs)
		e.F64s(ys)
		e.F64s(w)
		return e.Bytes(), dsKindDiscrete, nil
	case ds.Disks != nil:
		// Restore reconstructs UniformDisk points from the disk rows; any
		// other region type (truncated Gaussian) would silently change its
		// quantification semantics, so refuse it honestly.
		for _, p := range ds.Points {
			if _, ok := p.(uncertain.UniformDisk); !ok {
				return nil, 0, fmt.Errorf("dataset holds a %T: only uniform-disk, discrete, and square datasets are snapshottable", p)
			}
		}
		n := len(ds.Disks)
		cx, cy, r := make([]float64, n), make([]float64, n), make([]float64, n)
		for i, d := range ds.Disks {
			cx[i], cy[i], r[i] = d.C.X, d.C.Y, d.R
		}
		e.U8(dsKindDisks)
		e.F64s(cx)
		e.F64s(cy)
		e.F64s(r)
		return e.Bytes(), dsKindDisks, nil
	default:
		return nil, 0, fmt.Errorf("dataset has no flat family (mixed or continuous points): not snapshottable")
	}
}

// encodeIDsBBox writes a shard's global id list and bounding box.
func encodeIDsBBox(e *snapshot.Enc, ids []int, bbox geom.Rect) {
	ids32 := make([]int32, len(ids))
	for i, id := range ids {
		ids32[i] = int32(id)
	}
	e.I32s(ids32)
	e.F64(bbox.Min.X)
	e.F64(bbox.Min.Y)
	e.F64(bbox.Max.X)
	e.F64(bbox.Max.Y)
}

// encodeSlab writes one kd-tree's implicit arrays.
func encodeSlab(e *snapshot.Enc, t *kdtree.FlatTree) {
	s := t.Slab()
	e.U64(uint64(s.N))
	e.F64s(s.MinX)
	e.F64s(s.MinY)
	e.F64s(s.MaxX)
	e.F64s(s.MaxY)
	e.F64s(s.MinW)
	e.F64s(s.MaxW)
	e.I32s(s.Lo)
	e.I32s(s.Hi)
	e.F64s(s.Xs)
	e.F64s(s.Ys)
	e.F64s(s.Ws)
	e.I32s(s.IDs)
}

// exportIndexMeta describes ix (recursively for composites); the binary
// payloads are written separately by exportIndexPayload in the same
// traversal order.
func exportIndexMeta(ix Index) (*snapIndexMeta, error) {
	if h, ok := ix.(hintedIndex); ok {
		im, err := exportIndexMeta(h.Index)
		if err != nil {
			return nil, err
		}
		im.Hinted = true
		im.Hint = h.hint
		im.N = h.n
		return im, nil
	}
	switch v := ix.(type) {
	case *bruteIndex:
		return &snapIndexMeta{Kind: "brute", Backend: string(BackendBrute)}, nil
	case *twoStageDisksIndex:
		return &snapIndexMeta{Kind: "kd", Backend: string(BackendTwoStageDisks)}, nil
	case *twoStageDiscreteIndex:
		return &snapIndexMeta{Kind: "kd2", Backend: string(BackendTwoStageDiscrete)}, nil
	case *linfIndex:
		return &snapIndexMeta{Kind: "kd", Backend: string(BackendTwoStageLinf)}, nil
	case *l1Index:
		return &snapIndexMeta{Kind: "kd", Backend: string(BackendTwoStageL1)}, nil
	case *diagramIndex, *vprIndex, *monteCarloIndex, *spiralIndex, *expectedIndex:
		return &snapIndexMeta{Kind: "rebuild", Backend: ix.Name()}, nil
	case *plannedIndex:
		im := &snapIndexMeta{Kind: "planned", Plan: planToSnap(v.plan), Hint: v.hint, N: v.n}
		for _, part := range v.partsInOrder() {
			pm, err := exportIndexMeta(part)
			if err != nil {
				return nil, err
			}
			im.Parts = append(im.Parts, *pm)
		}
		return im, nil
	case *routedIndex:
		im := &snapIndexMeta{Kind: "routed", Hint: v.hint, N: v.n}
		for _, part := range v.parts {
			pm, err := exportIndexMeta(part)
			if err != nil {
				return nil, err
			}
			im.Parts = append(im.Parts, *pm)
		}
		return im, nil
	default:
		return nil, fmt.Errorf("cannot snapshot index type %T", v)
	}
}

// exportIndexPayload writes ix's binary payload (kd slabs, in the same
// traversal order exportIndexMeta describes).
func exportIndexPayload(e *snapshot.Enc, ix Index) error {
	if h, ok := ix.(hintedIndex); ok {
		return exportIndexPayload(e, h.Index)
	}
	switch v := ix.(type) {
	case *twoStageDisksIndex:
		encodeSlab(e, v.ts.Tree())
	case *twoStageDiscreteIndex:
		centers, locs := v.ts.Trees()
		encodeSlab(e, centers)
		encodeSlab(e, locs)
	case *linfIndex:
		encodeSlab(e, v.ts.Tree())
	case *l1Index:
		encodeSlab(e, v.ts.Tree())
	case *plannedIndex:
		for _, part := range v.partsInOrder() {
			if err := exportIndexPayload(e, part); err != nil {
				return err
			}
		}
	case *routedIndex:
		for _, part := range v.parts {
			if err := exportIndexPayload(e, part); err != nil {
				return err
			}
		}
	}
	return nil // brute and rebuild kinds carry no payload
}

// partsInOrder lists the composite's distinct built parts in registry
// kind order — the deterministic traversal both the meta and payload
// writers follow.
func (px *plannedIndex) partsInOrder() []Index {
	var out []Index
	seen := map[Index]bool{}
	for _, kind := range queryKinds() {
		if ix, ok := px.byKind[kind]; ok && !seen[ix] {
			seen[ix] = true
			out = append(out, ix)
		}
	}
	return out
}

func containsRebuild(im *snapIndexMeta) bool {
	if im.Kind == "rebuild" {
		return true
	}
	for i := range im.Parts {
		if containsRebuild(&im.Parts[i]) {
			return true
		}
	}
	return false
}

func planToSnap(p *Plan) *snapPlan {
	sp := &snapPlan{
		N: p.N, Nonzero: p.Mix.Nonzero, Probs: p.Mix.Probs, Expected: p.Mix.Expected,
		TopK: p.Mix.TopK, Horizon: p.Horizon, Probed: p.Probed,
	}
	for _, kind := range queryKinds() {
		if ch, ok := p.Choices[kind]; ok {
			sp.Choices = append(sp.Choices, snapChoice{
				Kind: uint8(kind), Backend: string(ch.Backend),
				QueryNs: ch.QueryNs, BuildNs: ch.BuildNs,
				RunnerUp: string(ch.RunnerUp), RunnerUpNs: ch.RunnerUpNs,
			})
		}
	}
	return sp
}

func coefsFromCalibration(cal Calibration) []snapCoef {
	ops := make([]CostOp, 0, numKinds+1)
	ops = append(ops, OpBuild)
	for i := range kindTable {
		ops = append(ops, kindTable[i].op)
	}
	out := make([]snapCoef, 0, len(cal))
	for _, b := range Backends() {
		for _, op := range ops {
			if v, ok := cal[CostKey{b, op}]; ok {
				out = append(out, snapCoef{Backend: string(b), Op: uint8(op), Coef: v})
			}
		}
	}
	return out
}

// --- import -----------------------------------------------------------------

// ReadSnapshot reassembles an Engine from a snapshot written by
// WriteSnapshot. Load cost is I/O plus slice adoption: the dataset rows
// and every kd-tree restore as decoded slabs (no geometry recomputation,
// no calibration probes); only backends without flat state rebuild.
// Malformed input returns an error (wrapping snapshot.ErrCorrupt) and
// never panics.
func ReadSnapshot(r io.Reader) (*Engine, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("engine: open snapshot: %w", err)
	}
	e, err := readSnapshotBytes(data)
	if err != nil {
		return nil, fmt.Errorf("engine: open snapshot: %w", err)
	}
	return e, nil
}

func readSnapshotBytes(data []byte) (*Engine, error) {
	sr, err := snapshot.NewReader(data)
	if err != nil {
		return nil, err
	}
	mb, _, ok := sr.Section(secMeta)
	if !ok {
		return nil, errCorrupt("missing meta section")
	}
	var meta snapMeta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, errCorrupt("meta: %v", err)
	}
	if meta.N <= 0 {
		return nil, errCorrupt("meta: non-positive item count %d", meta.N)
	}
	if err := validateMetaRanges(&meta); err != nil {
		return nil, err
	}
	db, _, ok := sr.Section(secDataset)
	if !ok {
		return nil, errCorrupt("missing dataset section")
	}
	dd, err := decodeDataset(db, meta.N)
	if err != nil {
		return nil, err
	}
	if dd.kind != meta.DatasetKind {
		return nil, errCorrupt("dataset kind %d disagrees with meta %d", dd.kind, meta.DatasetKind)
	}
	var ix Index
	switch meta.Family {
	case "sharded":
		ix, err = restoreSharded(sr, &meta, dd)
	case "plain":
		pb, _, ok := sr.Section(secTop)
		if !ok {
			return nil, errCorrupt("missing top-index section")
		}
		if meta.Top == nil {
			return nil, errCorrupt("missing top-index meta")
		}
		ix, err = restoreIndex(meta.Top, snapshot.NewDec(pb), dd.ds, meta.Build)
	default:
		return nil, errCorrupt("unknown family %q", meta.Family)
	}
	if err != nil {
		return nil, err
	}
	return restoreEngine(ix, meta.Run), nil
}

// validateMetaRanges bounds the meta-driven knobs that size work or
// memory on restore. The bounds are far beyond any real configuration;
// they exist so corrupted input fails fast instead of driving a
// pathological rebuild (e.g. a bit-flipped MCRounds forcing billions of
// Monte-Carlo instantiations) or allocation.
func validateMetaRanges(meta *snapMeta) error {
	const lim = 1 << 24
	b := &meta.Build
	for name, v := range map[string]int{
		"MCRounds":           b.MCRounds,
		"Diagram.Gamma.Grid": b.Diagram.Gamma.Grid,
		"Workers":            meta.Run.Workers,
		"ServeBuffer":        meta.Run.ServeBuffer,
		"Shard.Shards":       meta.Shard.Shards,
		"Shard.BuildWorkers": meta.Shard.BuildWorkers,
	} {
		if v < -1 || v > lim {
			return errCorrupt("meta: %s = %d out of range", name, v)
		}
	}
	if meta.Run.CacheSize < 0 || meta.Run.CacheSize > 1<<30 {
		return errCorrupt("meta: CacheSize = %d out of range", meta.Run.CacheSize)
	}
	if rp := meta.Run.Replan; rp != nil {
		if rp.Window < 0 || rp.Window > lim || rp.Cooldown < 0 || rp.Cooldown > lim {
			return errCorrupt("meta: Replan window/cooldown out of range")
		}
		if math.IsNaN(rp.ErrFactor) || math.IsInf(rp.ErrFactor, 0) ||
			math.IsNaN(rp.MixDelta) || math.IsInf(rp.MixDelta, 0) {
			return errCorrupt("meta: Replan thresholds not finite")
		}
	}
	for si := range meta.Shards {
		if len(meta.Shards[si].Rates) > numKinds {
			return errCorrupt("meta: shard %d has %d rate slots", si, len(meta.Shards[si].Rates))
		}
		for _, r := range meta.Shards[si].Rates {
			if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return errCorrupt("meta: shard %d rate %v out of range", si, r)
			}
		}
	}
	return nil
}

// restoreEngine replicates NewEngine's wiring, adopting the persisted
// resolved quantum instead of re-deriving it (the adaptive hint would
// otherwise re-pay the dataset-spacing sort).
func restoreEngine(ix Index, run snapRun) *Engine {
	opt := Options{
		Workers:      run.Workers,
		CacheSize:    run.CacheSize,
		CacheQuantum: run.CacheQuantum,
		ServeBuffer:  run.ServeBuffer,
	}
	e := &Engine{ix: ix, opt: opt.withDefaults()}
	e.adaptive = run.Adaptive
	e.quantum.Store(run.QuantumBits)
	if e.opt.CacheSize > 0 {
		e.cache = newCache(e.opt.CacheSize, math.Float64frombits(run.QuantumBits))
	}
	ux := ix
	if h, ok := ux.(hintedIndex); ok {
		ux = h.Index
	}
	if na, ok := ux.(nonzeroAppender); ok {
		e.appender = na
	}
	if ci, ok := ux.(cellIdentifier); ok {
		e.cells = ci
	}
	if rp := run.Replan; rp != nil {
		if sx, ok := ux.(*ShardedIndex); ok && sx.popt != nil {
			e.opt.AdaptiveReplan = &AdaptiveOptions{
				Window:   rp.Window,
				Drift:    DriftThresholds{ErrFactor: rp.ErrFactor, MixDelta: rp.MixDelta},
				Cooldown: rp.Cooldown,
			}
			e.adapt = newAdaptivePlanner(e, sx, *e.opt.AdaptiveReplan)
			e.adapt.restoreState(rp.Replans, rp.LastReason)
		}
	}
	return e
}

// decodedDataset is the dataset section after decode: the reconstructed
// Dataset plus the raw SoA arrays, which makeFlat adopts directly as the
// sharded layer's kernel mirror.
type decodedDataset struct {
	kind uint8
	ds   *Dataset
	// disks / squares rows
	cx, cy, r []float64
	// discrete rows (CSR)
	off        []int32
	xs, ys, ws []float64
}

func decodeDataset(payload []byte, wantN int) (*decodedDataset, error) {
	d := snapshot.NewDec(payload)
	kind, err := d.U8()
	if err != nil {
		return nil, err
	}
	dd := &decodedDataset{kind: kind}
	switch kind {
	case dsKindDisks, dsKindSquares:
		cx, err := d.F64s()
		if err != nil {
			return nil, err
		}
		cy, err := d.F64s()
		if err != nil {
			return nil, err
		}
		r, err := d.F64s()
		if err != nil {
			return nil, err
		}
		if len(cx) != wantN || len(cy) != wantN || len(r) != wantN {
			return nil, errCorrupt("dataset rows %d/%d/%d disagree with meta n=%d", len(cx), len(cy), len(r), wantN)
		}
		for i := range r {
			if err := checkRegion("region", geom.Pt(cx[i], cy[i]), r[i]); err != nil {
				return nil, errCorrupt("dataset row %d: %v", i, err)
			}
		}
		dd.cx, dd.cy, dd.r = cx, cy, r
		if kind == dsKindSquares {
			sqs := make([]lmetric.Square, wantN)
			for i := range sqs {
				sqs[i] = lmetric.Square{C: geom.Pt(cx[i], cy[i]), R: r[i]}
			}
			dd.ds = &Dataset{Squares: sqs}
		} else {
			disks := make([]geom.Disk, wantN)
			gen := make([]uncertain.Point, wantN)
			for i := range disks {
				disks[i] = geom.Disk{C: geom.Pt(cx[i], cy[i]), R: r[i]}
				gen[i] = uncertain.UniformDisk{D: disks[i]}
			}
			dd.ds = &Dataset{Points: gen, Disks: disks}
		}
	case dsKindDiscrete:
		off, err := d.I32s()
		if err != nil {
			return nil, err
		}
		xs, err := d.F64s()
		if err != nil {
			return nil, err
		}
		ys, err := d.F64s()
		if err != nil {
			return nil, err
		}
		w, err := d.F64s()
		if err != nil {
			return nil, err
		}
		if len(off) != wantN+1 || off[0] != 0 {
			return nil, errCorrupt("discrete offsets malformed (len %d, meta n=%d)", len(off), wantN)
		}
		total := len(xs)
		if len(ys) != total || len(w) != total || int(off[wantN]) != total {
			return nil, errCorrupt("discrete rows %d/%d/%d disagree with offsets end %d", total, len(ys), len(w), off[wantN])
		}
		for i := 0; i < wantN; i++ {
			if off[i] >= off[i+1] {
				return nil, errCorrupt("discrete row %d has empty or inverted window [%d,%d)", i, off[i], off[i+1])
			}
		}
		// Row views must not alias the flat mirror's arrays: DeleteRow
		// splices the mirror in place while restored rows are immutable.
		locsAll := make([]geom.Point, total)
		for a := range locsAll {
			locsAll[a] = geom.Pt(xs[a], ys[a])
		}
		wRows := make([]float64, total)
		copy(wRows, w)
		pts := make([]*uncertain.Discrete, wantN)
		gen := make([]uncertain.Point, wantN)
		for i := range pts {
			a, b := off[i], off[i+1]
			p, err := uncertain.RestoreDiscrete(locsAll[a:b:b], wRows[a:b:b])
			if err != nil {
				return nil, errCorrupt("discrete row %d: %v", i, err)
			}
			pts[i] = p
			gen[i] = p
		}
		dd.off, dd.xs, dd.ys, dd.ws = off, xs, ys, w
		dd.ds = &Dataset{Points: gen, Discrete: pts}
	default:
		return nil, errCorrupt("unknown dataset kind %d", kind)
	}
	if d.Remaining() != 0 {
		return nil, errCorrupt("dataset section has %d trailing bytes", d.Remaining())
	}
	return dd, nil
}

// makeFlat adopts the decoded SoA arrays as the sharded layer's kernel
// mirror — the zero-copy counterpart of flatForDataset.
func (dd *decodedDataset) makeFlat(m qmetric) *kernel.Flat {
	switch dd.kind {
	case dsKindSquares:
		km := kernel.MetricLinf
		if m == metricL1 {
			km = kernel.MetricL1
		}
		return &kernel.Flat{Kind: kernel.KindSquares, Metric: km, N: len(dd.cx), CX: dd.cx, CY: dd.cy, R: dd.r}
	case dsKindDiscrete:
		return &kernel.Flat{Kind: kernel.KindDiscrete, N: len(dd.off) - 1, Xs: dd.xs, Ys: dd.ys, W: dd.ws, Off: dd.off}
	default:
		return &kernel.Flat{Kind: kernel.KindDisks, N: len(dd.cx), CX: dd.cx, CY: dd.cy, R: dd.r}
	}
}

// restoreSharded reassembles a ShardedIndex: configuration from meta,
// the kernel mirror from the decoded dataset slabs, and the shards
// decoded in parallel from their sections.
func restoreSharded(sr *snapshot.Reader, meta *snapMeta, dd *decodedDataset) (*ShardedIndex, error) {
	sx := &ShardedIndex{
		name:       meta.Name,
		backend:    Backend(meta.Backend),
		metric:     qmetric(meta.Metric),
		opt:        meta.Shard,
		bopt:       meta.Build,
		planNote:   meta.PlanNote,
		epoch:      meta.Epoch,
		target:     meta.Target,
		ds:         dd.ds,
		owned:      true, // decoded views are private by construction
		flat:       dd.makeFlat(qmetric(meta.Metric)),
		n:          meta.N,
		bufInserts: meta.BufInserts,
		bufFlushes: meta.BufFlushes,
	}
	if sx.target < 1 {
		return nil, errCorrupt("per-shard target %d", sx.target)
	}
	if len(meta.Model) > 0 {
		sx.model = NewCostModel(calibrationFromCoefs(meta.Model))
	}
	switch meta.Sub {
	case "named":
		if sx.backend == "" {
			return nil, errCorrupt("named sharded index without a backend")
		}
		b, bopt := sx.backend, sx.bopt
		sx.factory = func(sub *Dataset) (Index, error) { return Build(b, sub, bopt) }
	case "auto":
		_, sx.factory = autoFactory(dd.ds, sx.bopt)
	case "planned":
		if meta.Planner == nil {
			return nil, errCorrupt("planned sharded index without planner options")
		}
		popt := PlannerOptions{
			Mix: Workload{
				Nonzero:  meta.Planner.Nonzero,
				Probs:    meta.Planner.Probs,
				Expected: meta.Planner.Expected,
				TopK:     meta.Planner.TopK,
			},
			Horizon:       meta.Planner.Horizon,
			RandomPenalty: meta.Planner.RandomPenalty,
			NoProbe:       true, // never re-probe: the persisted model has the coefficients
		}
		sx.popt = &popt
		sx.probed = meta.Planner.Probed
		model := sx.model
		if model == nil {
			model = NewCostModel(nil)
			sx.model = model
		}
		probed := sx.probed
		bopt := sx.bopt
		sx.factory = func(sub *Dataset) (Index, error) {
			p := planFor(sub, model, popt)
			p.Probed = probed
			px := &plannedIndex{plan: p, buildOpts: bopt}
			if err := px.Build(sub); err != nil {
				return nil, err
			}
			return px, nil
		}
	default:
		return nil, errCorrupt("unknown sharded factory %q", meta.Sub)
	}
	if sx.opt.InsertBuffer && sx.model == nil {
		sx.model = NewCostModel(nil)
	}

	// Parallel per-shard section decode.
	sx.shards = make([]*shard, len(meta.Shards))
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, runtime.NumCPU())
		mu       sync.Mutex
		firstErr error
	)
	for si := range meta.Shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s, err := decodeShard(sr, si, &meta.Shards[si], sx)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			sx.shards[si] = s
		}(si)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// Re-seed the adaptive workload profiles (temperatures) so a
	// restored fleet resumes warm. lastVisits stays 0 alongside the
	// freshly zeroed visit counters.
	for si, s := range sx.shards {
		for i, r := range meta.Shards[si].Rates {
			if i >= numKinds {
				break
			}
			s.setRate(i, r)
		}
	}

	if meta.HasBuffer {
		bb, _, ok := sr.Section(secBuffer)
		if !ok {
			return nil, errCorrupt("missing insert-buffer section")
		}
		d := snapshot.NewDec(bb)
		ids, bbox, err := decodeIDsBBox(d, sx.n)
		if err != nil {
			return nil, fmt.Errorf("insert buffer: %w", err)
		}
		sx.buf = &shard{ids: ids, bbox: bbox}
		if len(ids) > 0 {
			sx.buf.sub = subset(sx.ds, ids)
			ix, err := sx.shardFactory(sx.buf.sub)
			if err != nil {
				return nil, fmt.Errorf("insert buffer rebuild: %w", err)
			}
			sx.buf.ix = ix
			sx.buf.blocks = sx.blocksFor(ids)
		}
	}

	// Every global id must be owned by exactly one shard (or the buffer):
	// a corrupted partition would silently drop or double-count answers.
	seen := make([]bool, sx.n)
	claim := func(ids []int) error {
		for _, id := range ids {
			if seen[id] {
				return errCorrupt("item %d owned by two shards", id)
			}
			seen[id] = true
		}
		return nil
	}
	for _, s := range sx.shards {
		if err := claim(s.ids); err != nil {
			return nil, err
		}
	}
	if sx.buf != nil {
		if err := claim(sx.buf.ids); err != nil {
			return nil, err
		}
	}
	for id, ok := range seen {
		if !ok {
			return nil, errCorrupt("item %d owned by no shard", id)
		}
	}

	if !sx.recomputeCaps() {
		return nil, errCorrupt("no shard restored")
	}
	return sx, nil
}

func decodeShard(sr *snapshot.Reader, si int, sm *snapShard, sx *ShardedIndex) (*shard, error) {
	payload, _, ok := sr.Section(secShardBase + uint32(si))
	if !ok {
		return nil, errCorrupt("missing section of shard %d", si)
	}
	d := snapshot.NewDec(payload)
	ids, bbox, err := decodeIDsBBox(d, sx.n)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", si, err)
	}
	if len(ids) != sm.Items {
		return nil, errCorrupt("shard %d holds %d ids, meta says %d", si, len(ids), sm.Items)
	}
	s := &shard{ids: ids, bbox: bbox}
	if len(ids) > 0 {
		if sm.Index == nil {
			return nil, errCorrupt("non-empty shard %d has no index meta", si)
		}
		s.sub = subset(sx.ds, ids)
		s.ix, err = restoreIndex(sm.Index, d, s.sub, sx.bopt)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
		s.blocks = sx.blocksFor(ids)
	}
	return s, nil
}

// decodeIDsBBox reads and validates a shard's id list (strictly
// ascending, in range) and bounding box.
func decodeIDsBBox(d *snapshot.Dec, n int) ([]int, geom.Rect, error) {
	var box geom.Rect
	ids32, err := d.I32s()
	if err != nil {
		return nil, box, err
	}
	ids := make([]int, len(ids32))
	prev := -1
	for i, id := range ids32 {
		if int(id) <= prev || int(id) >= n {
			return nil, box, errCorrupt("id %d out of order or range (n=%d)", id, n)
		}
		prev = int(id)
		ids[i] = int(id)
	}
	for _, p := range []*float64{&box.Min.X, &box.Min.Y, &box.Max.X, &box.Max.Y} {
		v, err := d.F64()
		if err != nil {
			return nil, box, err
		}
		*p = v
	}
	return ids, box, nil
}

func decodeSlab(d *snapshot.Dec) (*kdtree.FlatTree, error) {
	n, err := d.U64()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining()) {
		return nil, errCorrupt("kd slab item count %d exceeds payload", n)
	}
	var s kdtree.Slab
	s.N = int(n)
	for _, dst := range []*[]float64{&s.MinX, &s.MinY, &s.MaxX, &s.MaxY, &s.MinW, &s.MaxW} {
		if *dst, err = d.F64s(); err != nil {
			return nil, err
		}
	}
	if s.Lo, err = d.I32s(); err != nil {
		return nil, err
	}
	if s.Hi, err = d.I32s(); err != nil {
		return nil, err
	}
	for _, dst := range []*[]float64{&s.Xs, &s.Ys, &s.Ws} {
		if *dst, err = d.F64s(); err != nil {
			return nil, err
		}
	}
	if s.IDs, err = d.I32s(); err != nil {
		return nil, err
	}
	t, err := kdtree.FlatFromSlab(s)
	if err != nil {
		return nil, errCorrupt("%v", err)
	}
	return t, nil
}

// restoreIndex reassembles one index component from its meta and the
// shared payload decoder (consumed in meta order).
func restoreIndex(im *snapIndexMeta, d *snapshot.Dec, sub *Dataset, bopt BuildOptions) (Index, error) {
	inner, err := restoreAdapter(im, d, sub, bopt)
	if err != nil {
		return nil, err
	}
	if im.Hinted {
		return hintedIndex{Index: inner, hint: im.Hint, n: im.N, ds: sub}, nil
	}
	return inner, nil
}

func restoreAdapter(im *snapIndexMeta, d *snapshot.Dec, sub *Dataset, bopt BuildOptions) (Index, error) {
	switch im.Kind {
	case "brute":
		if len(sub.Points) == 0 {
			return nil, errCorrupt("brute backend over a dataset without points")
		}
		// The flat mirror lowers lazily on first query (ensureFlat), via
		// the shardFlatPool reuse path — restored shards keep the
		// zero-alloc steady state.
		return &bruteIndex{opt: bopt.withDefaults(), ds: sub}, nil
	case "kd":
		t, err := decodeSlab(d)
		if err != nil {
			return nil, err
		}
		switch Backend(im.Backend) {
		case BackendTwoStageDisks:
			if sub.Disks == nil || t.Len() != len(sub.Disks) {
				return nil, errCorrupt("twostage-disks tree/dataset mismatch")
			}
			return &twoStageDisksIndex{ts: nonzero.RestoreTwoStageDisks(sub.Disks, t)}, nil
		case BackendTwoStageLinf:
			if sub.Squares == nil || t.Len() != len(sub.Squares) {
				return nil, errCorrupt("twostage-linf tree/dataset mismatch")
			}
			return &linfIndex{ts: lmetric.RestoreTwoStageLinf(sub.Squares, t)}, nil
		case BackendTwoStageL1:
			if sub.Squares == nil || t.Len() != len(sub.Squares) {
				return nil, errCorrupt("twostage-l1 tree/dataset mismatch")
			}
			return &l1Index{ts: lmetric.RestoreTwoStageL1(sub.Squares, t)}, nil
		default:
			return nil, errCorrupt("kd payload for backend %q", im.Backend)
		}
	case "kd2":
		centers, err := decodeSlab(d)
		if err != nil {
			return nil, err
		}
		locs, err := decodeSlab(d)
		if err != nil {
			return nil, err
		}
		if sub.Discrete == nil || centers.Len() != len(sub.Discrete) {
			return nil, errCorrupt("twostage-discrete trees/dataset mismatch")
		}
		return &twoStageDiscreteIndex{ts: nonzero.RestoreTwoStageDiscrete(sub.Discrete, centers, locs)}, nil
	case "rebuild":
		ix, err := NewIndex(Backend(im.Backend), bopt)
		if err != nil {
			return nil, errCorrupt("%v", err)
		}
		if err := ix.Build(sub); err != nil {
			return nil, fmt.Errorf("rebuild %s: %w", im.Backend, err)
		}
		return ix, nil
	case "planned":
		if im.Plan == nil || len(im.Plan.Choices) == 0 {
			return nil, errCorrupt("planned composite without a plan")
		}
		plan := planFromSnap(im.Plan)
		px := &plannedIndex{plan: plan, buildOpts: bopt, hint: im.Hint, n: im.N, ds: sub}
		byBackend := map[Backend]Index{}
		for pi := range im.Parts {
			part, err := restoreIndex(&im.Parts[pi], d, sub, bopt)
			if err != nil {
				return nil, err
			}
			byBackend[Backend(im.Parts[pi].Backend)] = part
		}
		px.byKind = map[Capability]Index{}
		for kind, ch := range plan.Choices {
			part, ok := byBackend[ch.Backend]
			if !ok {
				return nil, errCorrupt("plan assigns %s to %s but no such part was persisted", kind, ch.Backend)
			}
			if !part.Capabilities().Has(kind) {
				return nil, errCorrupt("restored %s part cannot answer %s", ch.Backend, kind)
			}
			px.byKind[kind] = part
			px.caps |= kind
		}
		return px, nil
	case "routed":
		r := &routedIndex{hint: im.Hint, n: im.N, ds: sub}
		if len(im.Parts) == 0 {
			return nil, errCorrupt("routed composite without parts")
		}
		for pi := range im.Parts {
			part, err := restoreIndex(&im.Parts[pi], d, sub, bopt)
			if err != nil {
				return nil, err
			}
			r.parts = append(r.parts, part)
			r.caps |= part.Capabilities()
		}
		return r, nil
	default:
		return nil, errCorrupt("unknown index kind %q", im.Kind)
	}
}

func planFromSnap(sp *snapPlan) *Plan {
	p := &Plan{
		N:       sp.N,
		Mix:     Workload{Nonzero: sp.Nonzero, Probs: sp.Probs, Expected: sp.Expected, TopK: sp.TopK},
		Horizon: sp.Horizon,
		Probed:  sp.Probed,
		Choices: map[Capability]Choice{},
	}
	for _, ch := range sp.Choices {
		p.Choices[Capability(ch.Kind)] = Choice{
			Backend: Backend(ch.Backend), QueryNs: ch.QueryNs, BuildNs: ch.BuildNs,
			RunnerUp: Backend(ch.RunnerUp), RunnerUpNs: ch.RunnerUpNs,
		}
	}
	return p
}

func calibrationFromCoefs(coefs []snapCoef) Calibration {
	cal := make(Calibration, len(coefs))
	for _, c := range coefs {
		cal[CostKey{Backend(c.Backend), CostOp(c.Op)}] = c.Coef
	}
	return cal
}
