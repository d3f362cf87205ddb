package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"unn/internal/constructions"
	"unn/internal/geom"
	"unn/internal/quantify"
)

// batchIndex builds one backend/shard-count case for the batch tests
// (shards 0 = monolithic).
func batchIndex(t *testing.T, backend Backend, ds *Dataset, shards int) Index {
	t.Helper()
	var ix Index
	var err error
	if shards == 0 {
		ix, err = Build(backend, ds, BuildOptions{})
	} else {
		ix, err = BuildSharded(backend, ds, BuildOptions{}, ShardOptions{Shards: shards})
	}
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// batchAnswers is every kind's answer to one query list: from a Batch*
// call, or from the reference loop of the matching Query* calls.
type batchAnswers struct {
	nonzero  [][]int
	into     [][]int
	probs    [][]quantify.Prob
	expected []ExpectedResult
	topk     [][]quantify.Prob
}

const batchParityK = 3

// loopAnswers is the reference: a plain loop of single-query calls.
func loopAnswers(t *testing.T, eng *Engine, qs []geom.Point) batchAnswers {
	t.Helper()
	caps := eng.Capabilities()
	var a batchAnswers
	for _, q := range qs {
		if caps.Has(CapNonzero) {
			ids, err := eng.QueryNonzero(q)
			if err != nil {
				t.Fatal(err)
			}
			a.nonzero = append(a.nonzero, ids)
			a.into = append(a.into, ids)
		}
		if caps.Has(CapProbs) {
			ps, err := eng.QueryProbs(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			a.probs = append(a.probs, ps)
		}
		if caps.Has(CapExpected) {
			i, d, err := eng.QueryExpected(q)
			if err != nil {
				t.Fatal(err)
			}
			a.expected = append(a.expected, ExpectedResult{I: i, Dist: d})
		}
		if caps.Has(CapTopK) {
			ps, err := eng.QueryTopK(q, batchParityK, 0)
			if err != nil {
				t.Fatal(err)
			}
			a.topk = append(a.topk, ps)
		}
	}
	return a
}

// batchedAnswers runs every supported Batch* entry point once.
// BatchNonzeroInto gets a destination longer than the batch, with stale
// contents in every slot.
func batchedAnswers(t *testing.T, eng *Engine, qs []geom.Point) batchAnswers {
	t.Helper()
	caps := eng.Capabilities()
	var a batchAnswers
	var err error
	if caps.Has(CapNonzero) {
		if a.nonzero, err = eng.BatchNonzero(qs); err != nil {
			t.Fatal(err)
		}
		dst := make([][]int, len(qs)+5)
		for i := range dst {
			dst[i] = []int{-1, -2}
		}
		if a.into, err = eng.BatchNonzeroInto(qs, dst); err != nil {
			t.Fatal(err)
		}
		if len(a.into) != len(qs) {
			t.Fatalf("BatchNonzeroInto returned %d slots for %d queries", len(a.into), len(qs))
		}
	}
	if caps.Has(CapProbs) {
		if a.probs, err = eng.BatchProbs(qs, 0); err != nil {
			t.Fatal(err)
		}
	}
	if caps.Has(CapExpected) {
		if a.expected, err = eng.BatchExpected(qs); err != nil {
			t.Fatal(err)
		}
	}
	if caps.Has(CapTopK) {
		if a.topk, err = eng.BatchTopK(qs, batchParityK, 0); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// sameAnswers demands bit-identical answers: NN≠0 id lists, E[d]
// (index and distance) and π / top-k entries (index and probability).
func sameAnswers(t *testing.T, what string, got, want batchAnswers) {
	t.Helper()
	for i := range want.nonzero {
		if !eqIDs(got.nonzero[i], want.nonzero[i]) {
			t.Fatalf("%s q[%d]: BatchNonzero %v, want %v", what, i, got.nonzero[i], want.nonzero[i])
		}
		if !eqIDs(got.into[i], want.into[i]) {
			t.Fatalf("%s q[%d]: BatchNonzeroInto %v, want %v", what, i, got.into[i], want.into[i])
		}
	}
	for i := range want.probs {
		if !slices.Equal(got.probs[i], want.probs[i]) {
			t.Fatalf("%s q[%d]: BatchProbs %v, want %v", what, i, got.probs[i], want.probs[i])
		}
	}
	for i := range want.expected {
		if got.expected[i] != want.expected[i] {
			t.Fatalf("%s q[%d]: BatchExpected %+v, want %+v", what, i, got.expected[i], want.expected[i])
		}
	}
	for i := range want.topk {
		if !slices.Equal(got.topk[i], want.topk[i]) {
			t.Fatalf("%s q[%d]: BatchTopK %v, want %v", what, i, got.topk[i], want.topk[i])
		}
	}
}

// TestBatchParity is the batch executor's contract: for every backend
// family, shard count, worker count, cache setting, and batches with
// and without heavy duplication, every Batch* entry point answers
// exactly what a plain loop of the matching Query* call answers — NN≠0
// and E[d] bit-identical, π and top-k entry for entry — and a failing
// batch names its lowest failing input index.
func TestBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(0x71e5))
	discrete := FromDiscrete(constructions.RandomDiscrete(rng, 60, 3, 40, 1.0, 1))
	disks := FromDisks(constructions.RandomDisks(rng, 60, 40, 0.5, 2.0))
	squares := FromSquares(randSquares(rng, 60, 40))
	cases := []struct {
		name    string
		backend Backend
		ds      *Dataset
		shards  int
	}{
		{"brute/discrete/mono", BackendBrute, discrete, 0},
		{"brute/disks/mono", BackendBrute, disks, 0},
		{"brute/discrete/k1", BackendBrute, discrete, 1},
		{"brute/discrete/k4", BackendBrute, discrete, 4},
		{"brute/discrete/k8", BackendBrute, discrete, 8},
		{"brute/disks/k4", BackendBrute, disks, 4},
		{"twostage-discrete/k4", BackendTwoStageDiscrete, discrete, 4},
		{"twostage-linf/k4", BackendTwoStageLinf, squares, 4},
		{"diagram/mono", BackendDiagram, disks, 0}, // no flat mirror
		{"spiral/discrete/k4", BackendSpiral, discrete, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := batchIndex(t, tc.backend, tc.ds, tc.shards)
			qrng := rand.New(rand.NewSource(0x9a17))
			mixed := randQueries(qrng, 53, 40)
			mixed[7], mixed[31], mixed[50] = mixed[3], mixed[3], mixed[12]
			hot := randQueries(qrng, 6, 40)
			heavy := make([]geom.Point, 64) // duplicate-heavy: 64 slots, ≤ 6 distinct points
			for i := range heavy {
				heavy[i] = hot[qrng.Intn(len(hot))]
			}
			for _, qs := range [][]geom.Point{mixed, heavy} {
				want := loopAnswers(t, NewEngine(ix, Options{Workers: 1}), qs)
				for _, workers := range []int{1, 2, 8} {
					for _, cacheSize := range []int{0, 256} {
						eng := NewEngine(ix, Options{Workers: workers, CacheSize: cacheSize})
						what := fmt.Sprintf("n=%d workers=%d cache=%d", len(qs), workers, cacheSize)
						sameAnswers(t, what, batchedAnswers(t, eng, qs), want)
						if cacheSize > 0 { // the second pass answers from the cache
							sameAnswers(t, what+" warm", batchedAnswers(t, eng, qs), want)
						}
					}
				}
			}
		})
	}
	t.Run("error/lowest-index", batchLowestFailingIndex)
}

// failingIndex fails every query at the points in fail, after that
// point's delay: a mid-batch backend failure no input check catches.
type failingIndex struct {
	Index
	fail map[geom.Point]time.Duration
}

func (f failingIndex) check(q geom.Point) error {
	if d, ok := f.fail[q]; ok {
		time.Sleep(d)
		return fmt.Errorf("boom at %v", q)
	}
	return nil
}

func (f failingIndex) QueryNonzero(q geom.Point) ([]int, error) {
	if err := f.check(q); err != nil {
		return nil, err
	}
	return f.Index.QueryNonzero(q)
}

func (f failingIndex) QueryProbs(q geom.Point, eps float64) ([]quantify.Prob, error) {
	if err := f.check(q); err != nil {
		return nil, err
	}
	return f.Index.QueryProbs(q, eps)
}

func (f failingIndex) QueryExpected(q geom.Point) (int, float64, error) {
	if err := f.check(q); err != nil {
		return -1, 0, err
	}
	return f.Index.QueryExpected(q)
}

// batchLowestFailingIndex: a batch whose backend fails on two queries
// reports the lower input index through every Batch* entry point,
// whatever the worker count — even when the higher one fails first and
// a duplicate of the lower one sits later in the batch.
func batchLowestFailingIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(0xe11))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 40, 3, 30, 1.0, 1))
	qs := randQueries(rng, 64, 30)
	qs[60] = qs[11]
	ix := failingIndex{
		Index: batchIndex(t, BackendBrute, ds, 4),
		fail:  map[geom.Point]time.Duration{qs[11]: 200 * time.Microsecond, qs[50]: 0},
	}
	for _, workers := range []int{1, 2, 8} {
		eng := NewEngine(ix, Options{Workers: workers})
		_, e1 := eng.BatchNonzero(qs)
		_, e2 := eng.BatchNonzeroInto(qs, nil)
		_, e3 := eng.BatchProbs(qs, 0)
		_, e4 := eng.BatchExpected(qs)
		_, e5 := eng.BatchTopK(qs, 2, 0)
		for i, err := range []error{e1, e2, e3, e4, e5} {
			if err == nil || !strings.Contains(err.Error(), "batch query 11:") {
				t.Fatalf("workers=%d entry %d: err = %v, want the failure at index 11", workers, i, err)
			}
		}
	}
}

// TestBatchNonzeroIntoReuse: the allocation-aware batch entry point
// reuses its destination slots across calls and still matches the
// allocating path.
func TestBatchNonzeroIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1470))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 48, 3, 30, 1.0, 1))
	ix := batchIndex(t, BackendBrute, ds, 4)
	eng := NewEngine(ix, Options{Workers: 1})
	qs := randQueries(rng, 33, 30)
	want, err := eng.BatchNonzero(qs)
	if err != nil {
		t.Fatal(err)
	}
	var dst [][]int
	for round := 0; round < 3; round++ {
		dst, err = eng.BatchNonzeroInto(qs, dst)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			if !eqIDs(want[i], dst[i]) {
				t.Fatalf("round %d q[%d]: %v, want %v", round, i, dst[i], want[i])
			}
		}
	}
}

// shardVisitTotal sums the per-shard NN≠0 visit counters.
func shardVisitTotal(e *Engine) uint64 {
	total := uint64(0)
	for _, sk := range e.Stats().ShardQueries {
		total += sk.Counts[slotNonzero]
	}
	return total
}

// TestBatchDedupSingleflight is the in-batch singleflight regression:
// duplicate queries in one batch compute once. With caching off the
// dedup keys are exact coordinates — a batch of 64 copies costs exactly
// the shard visits of one query; with caching on, same-cache-cell
// queries collapse to a single miss.
func TestBatchDedupSingleflight(t *testing.T) {
	rng := rand.New(rand.NewSource(0xded0))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 60, 3, 40, 1.0, 1))
	ix := batchIndex(t, BackendBrute, ds, 4)
	eng := NewEngine(ix, Options{Workers: 1})
	q := geom.Pt(11, 23)

	before := shardVisitTotal(eng)
	if _, err := eng.QueryNonzero(q); err != nil {
		t.Fatal(err)
	}
	perQuery := shardVisitTotal(eng) - before

	dupes := make([]geom.Point, 64)
	for i := range dupes {
		dupes[i] = q
	}
	before = shardVisitTotal(eng)
	res, err := eng.BatchNonzero(dupes)
	if err != nil {
		t.Fatal(err)
	}
	if got := shardVisitTotal(eng) - before; got != perQuery {
		t.Fatalf("64-duplicate batch cost %d shard visits, want %d (one computation)", got, perQuery)
	}
	for i := 1; i < len(res); i++ {
		if !slices.Equal(res[i], res[0]) {
			t.Fatalf("duplicate %d diverged: %v vs %v", i, res[i], res[0])
		}
	}

	// With a quantized cache, queries sharing a cell are one miss.
	cached := NewEngine(ix, Options{Workers: 1, CacheSize: 256, CacheQuantum: 1.0})
	cell := make([]geom.Point, 16)
	for i := range cell {
		cell[i] = geom.Pt(5.1+float64(i)*1e-3, 7.2) // all inside one 1.0-quantum cell
	}
	if _, err := cached.BatchNonzero(cell); err != nil {
		t.Fatal(err)
	}
	if _, misses := cached.CacheStats(); misses != 1 {
		t.Fatalf("same-cell batch recorded %d cache misses, want 1", misses)
	}
}

// TestBatchStatsCounters: the batch counters surface through Stats —
// batches served, mean batch size, and TileLanes counting exactly the
// unique misses the executor computed.
func TestBatchStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(0x57a7))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 48, 3, 30, 1.0, 1))
	ix := batchIndex(t, BackendBrute, ds, 4)
	eng := NewEngine(ix, Options{Workers: 1})
	qs := randQueries(rng, 13, 30)
	if _, err := eng.BatchNonzero(qs[:5]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.BatchNonzero(qs[5:]); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Batches != 2 || st.BatchQueries != 13 {
		t.Fatalf("batches=%d queries=%d, want 2/13", st.Batches, st.BatchQueries)
	}
	if got := st.MeanBatchSize(); got != 6.5 {
		t.Fatalf("MeanBatchSize = %v, want 6.5", got)
	}
	if st.TileLanes != 13 {
		t.Fatalf("TileLanes = %d after 13 distinct queries, want 13", st.TileLanes)
	}
	if got := st.Kind(CapNonzero).Count; got != 13 {
		t.Fatalf("nonzero kind count = %d, want 13 (each batch slot once)", got)
	}
	if occ := st.TileOccupancy(); occ != 0 {
		t.Fatalf("TileOccupancy = %v, want the deprecated 0", occ)
	}

	// A duplicate-heavy batch computes only its distinct points, and a
	// repeat with the cache on computes nothing.
	heavy := make([]geom.Point, 40)
	for i := range heavy {
		heavy[i] = qs[i%4]
	}
	cached := NewEngine(ix, Options{Workers: 2, CacheSize: 64})
	for round, want := range []uint64{4, 4} {
		if _, err := cached.BatchExpected(heavy); err != nil {
			t.Fatal(err)
		}
		if got := cached.Stats().TileLanes; got != want {
			t.Fatalf("round %d: TileLanes = %d, want %d unique misses", round, got, want)
		}
	}
}

// TestServeCoalescesQueries mirrors the mutation-coalescing test for
// queries: a backlog of same-kind queries on the stream is served as
// one batch (visible in Stats.Batches), and
// every Answer still matches its single-query counterpart by Seq.
func TestServeCoalescesQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5e12))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 48, 3, 30, 1.0, 1))
	ix := batchIndex(t, BackendBrute, ds, 4)
	eng := NewEngine(ix, Options{Workers: 1})
	qs := randQueries(rng, 24, 30)

	in := make(chan Query, len(qs))
	for i, q := range qs {
		in <- Query{Seq: uint64(i), Kind: CapNonzero, Q: q}
	}
	close(in)
	got := make([][]int, len(qs))
	for a := range eng.Serve(t.Context(), in) {
		if a.Err != nil {
			t.Fatalf("seq %d: %v", a.Seq, a.Err)
		}
		got[a.Seq] = a.Nonzero
	}
	for i, q := range qs {
		want, err := eng.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if !eqIDs(want, got[i]) {
			t.Fatalf("seq %d q=%v: %v, want %v", i, q, got[i], want)
		}
	}
	if st := eng.Stats(); st.Batches == 0 {
		t.Fatalf("prefilled stream served no coalesced batches (batches=%d)", st.Batches)
	}
}
