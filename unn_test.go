package unn_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"unn"
)

func testDiscretes(t *testing.T, rng *rand.Rand, n, k int, side float64) []*unn.Discrete {
	t.Helper()
	pts := make([]*unn.Discrete, n)
	for i := range pts {
		cx, cy := rng.Float64()*side, rng.Float64()*side
		locs := make([]unn.Point, k)
		w := make([]float64, k)
		for j := range locs {
			locs[j] = unn.Pt(cx+rng.NormFloat64(), cy+rng.NormFloat64())
			w[j] = 0.5 + rng.Float64()
		}
		p, err := unn.NewDiscrete(locs, w)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = p
	}
	return pts
}

// TestOpenAutoDiscrete: the default backend for discrete input is the
// exact reference and supports all three query kinds.
func TestOpenAutoDiscrete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := testDiscretes(t, rng, 16, 3, 20)
	h, err := unn.OpenDiscrete(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Backend(); got != unn.BackendBrute {
		t.Fatalf("auto backend = %s, want brute", got)
	}
	want := unn.CapNonzero | unn.CapProbs | unn.CapExpected | unn.CapTopK
	if got := h.Capabilities(); got != want {
		t.Fatalf("capabilities = %v, want %v", got, want)
	}
	q := unn.Pt(10, 10)
	nn, err := h.QueryNonzero(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := unn.NonzeroNN(unn.FromDiscrete(pts), q); !reflect.DeepEqual(nn, want) {
		t.Fatalf("QueryNonzero = %v, want %v", nn, want)
	}
	probs, err := h.QueryProbs(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact := unn.ExactProbabilities(pts, q)
	for _, pr := range probs {
		if math.Abs(pr.P-exact[pr.I]) > 1e-12 {
			t.Fatalf("π_%d = %v, want %v", pr.I, pr.P, exact[pr.I])
		}
	}
	if _, _, err := h.QueryExpected(q); err != nil {
		t.Fatal(err)
	}
}

// TestOpenBackendsAgree: every nonzero-capable backend opened through
// the one Open API answers identically (up to the structures' own
// guarantees) on disk datasets.
func TestOpenBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	disks := make([]unn.Disk, 12)
	for i := range disks {
		disks[i] = unn.DiskAt(rng.Float64()*30, rng.Float64()*30, 0.5+rng.Float64()*1.5)
	}
	hBrute, err := unn.OpenDisks(disks)
	if err != nil {
		t.Fatal(err)
	}
	hTS, err := unn.OpenDisks(disks, unn.WithBackend(unn.BackendTwoStageDisks))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]unn.Point, 128)
	for i := range qs {
		qs[i] = unn.Pt(rng.Float64()*30, rng.Float64()*30)
	}
	a, err := hBrute.BatchNonzero(qs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hTS.BatchNonzero(qs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("brute and two-stage disagree on disks")
	}
}

// TestOpenCapabilityError: asking a handle for an unsupported kind
// fails with ErrUnsupported.
func TestOpenCapabilityError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := testDiscretes(t, rng, 8, 2, 10)
	h, err := unn.OpenDiscrete(pts, unn.WithBackend(unn.BackendTwoStageDiscrete))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.QueryProbs(unn.Pt(0, 0), 0); !errors.Is(err, unn.ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

// TestOpenSquares: the L∞/L1 structures are reachable through Open.
func TestOpenSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	squares := make([]unn.Square, 10)
	for i := range squares {
		squares[i] = unn.Square{C: unn.Pt(rng.Float64()*20, rng.Float64()*20), R: 0.5 + rng.Float64()}
	}
	for _, b := range []unn.Backend{unn.BackendAuto, unn.BackendTwoStageLinf, unn.BackendTwoStageL1} {
		h, err := unn.OpenSquares(squares, unn.WithBackend(b))
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if out, err := h.QueryNonzero(unn.Pt(10, 10)); err != nil || len(out) == 0 {
			t.Fatalf("%s: out=%v err=%v", b, out, err)
		}
	}
}

// TestOpenAutoNeverMismatches is the BackendAuto regression test: for
// every dataset kind, the auto-selected backend must support every
// query kind that at least one backend could support on that dataset —
// in particular, probability queries over continuous (non-discrete)
// inputs must not land on a backend that returns ErrUnsupported.
func TestOpenAutoNeverMismatches(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	disks := make([]unn.Disk, 10)
	for i := range disks {
		disks[i] = unn.DiskAt(rng.Float64()*30, rng.Float64()*30, 0.5+rng.Float64())
	}
	gauss := make([]unn.Uncertain, 10)
	for i := range gauss {
		d := unn.DiskAt(rng.Float64()*30, rng.Float64()*30, 0.5+rng.Float64())
		gauss[i] = unn.NewTruncGauss(d, d.R/2)
	}
	squares := make([]unn.Square, 10)
	for i := range squares {
		squares[i] = unn.Square{C: unn.Pt(rng.Float64()*30, rng.Float64()*30), R: 0.5 + rng.Float64()}
	}
	cases := []struct {
		name string
		open func() (*unn.Handle, error)
		want unn.Capability
	}{
		{"discrete", func() (*unn.Handle, error) {
			return unn.OpenDiscrete(testDiscretes(t, rng, 10, 2, 30))
		}, unn.CapNonzero | unn.CapProbs | unn.CapExpected},
		{"disks", func() (*unn.Handle, error) {
			return unn.OpenDisks(disks)
		}, unn.CapNonzero | unn.CapProbs},
		{"continuous", func() (*unn.Handle, error) {
			return unn.Open(gauss)
		}, unn.CapNonzero | unn.CapProbs},
		{"squares", func() (*unn.Handle, error) {
			return unn.OpenSquares(squares)
		}, unn.CapNonzero},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			caps := h.Capabilities()
			if !caps.Has(tc.want) {
				t.Fatalf("auto capabilities = %v, want at least %v", caps, tc.want)
			}
			q := unn.Pt(15, 15)
			if caps.Has(unn.CapNonzero) {
				if _, err := h.QueryNonzero(q); err != nil {
					t.Fatalf("QueryNonzero: %v", err)
				}
			}
			if caps.Has(unn.CapProbs) {
				if _, err := h.QueryProbs(q, 0); err != nil {
					t.Fatalf("QueryProbs: %v", err)
				}
			}
			if caps.Has(unn.CapExpected) {
				if _, _, err := h.QueryExpected(q); err != nil {
					t.Fatalf("QueryExpected: %v", err)
				}
			}
		})
	}
}

// TestOpenSharded: the sharded execution layer is reachable from Open
// (including auto selection) and agrees with the monolithic handle.
func TestOpenSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := testDiscretes(t, rng, 24, 3, 40)
	mono, err := unn.OpenDiscrete(pts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := unn.OpenDiscrete(pts, unn.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]unn.Point, 64)
	for i := range qs {
		qs[i] = unn.Pt(rng.Float64()*40, rng.Float64()*40)
	}
	a, err := mono.BatchNonzero(qs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sharded.BatchNonzero(qs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sharded auto handle disagrees with the monolithic one")
	}

	// The grid partitioner only shapes sharding: with WithShards it works,
	// without it Open must reject the dangling option.
	if _, err := unn.OpenDiscrete(pts, unn.WithShards(4), unn.WithShardGrid()); err != nil {
		t.Fatalf("WithShards+WithShardGrid: %v", err)
	}
	if _, err := unn.OpenDiscrete(pts, unn.WithShardGrid()); err == nil {
		t.Fatal("WithShardGrid without WithShards was silently accepted")
	}
	if _, err := unn.OpenDiscrete(pts, unn.WithShards(0)); err == nil {
		t.Fatal("WithShards(0) was silently accepted as unsharded")
	}
}

// TestHandleServe: the async stream is reachable from the public API.
func TestHandleServe(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := testDiscretes(t, rng, 16, 2, 30)
	h, err := unn.OpenDiscrete(pts, unn.WithShards(2), unn.WithServeBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan unn.Query, 16)
	for i := 0; i < 16; i++ {
		in <- unn.Query{Seq: uint64(i), Kind: unn.CapNonzero,
			Q: unn.Pt(rng.Float64()*30, rng.Float64()*30)}
	}
	close(in)
	got := 0
	for a := range h.Serve(context.Background(), in) {
		if a.Err != nil {
			t.Fatalf("seq %d: %v", a.Seq, a.Err)
		}
		got++
	}
	if got != 16 {
		t.Fatalf("drained %d answers, want 16", got)
	}
}

// TestQueryRejectsNonFinite: a query point with a NaN or ±Inf
// coordinate fails with ErrInvalidInput — never a plausible empty
// answer — through every query entry point (single, Into, batch with the
// lowest bad index, Serve) of plain, sharded and cached handles, for all
// four query kinds. So does a NaN or ±Inf eps on the π and top-k entry
// points (the whole batch at once), including the spiral search that
// would otherwise answer a truncated π vector; a finite eps ≤ 0 still
// selects the default.
func TestQueryRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(0xbad))
	pts := testDiscretes(t, rng, 40, 3, 30)
	handles := []struct {
		name string
		opts []unn.Option
	}{
		{"plain", nil},
		{"sharded", []unn.Option{unn.WithShards(8)}},
		{"cached", []unn.Option{unn.WithShards(2), unn.WithAutoCache(64)}},
	}
	bad := []unn.Point{
		unn.Pt(math.NaN(), 5), unn.Pt(5, math.NaN()),
		unn.Pt(math.Inf(1), 5), unn.Pt(5, math.Inf(-1)),
	}
	good := unn.Pt(15, 15)
	badEps := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	kinds := []unn.Capability{unn.CapNonzero, unn.CapProbs, unn.CapExpected, unn.CapTopK}
	isInvalid := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, unn.ErrInvalidInput) {
			t.Fatalf("%s: err = %v, want ErrInvalidInput", what, err)
		}
	}
	for _, hc := range handles {
		t.Run(hc.name, func(t *testing.T) {
			h, err := unn.OpenDiscrete(pts, hc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range kinds {
				if !h.Capabilities().Has(k) {
					t.Fatalf("handle lacks %v", k)
				}
			}
			for _, q := range bad {
				for rep := 0; rep < 2; rep++ { // a repeat must not hit the cache
					_, err := h.QueryNonzero(q)
					isInvalid(t, fmt.Sprintf("QueryNonzero%v", q), err)
					_, err = h.QueryNonzeroInto(q, nil)
					isInvalid(t, fmt.Sprintf("QueryNonzeroInto%v", q), err)
					_, err = h.QueryProbs(q, 0)
					isInvalid(t, fmt.Sprintf("QueryProbs%v", q), err)
					_, _, err = h.QueryExpected(q)
					isInvalid(t, fmt.Sprintf("QueryExpected%v", q), err)
					_, err = h.QueryTopK(q, 3, 0)
					isInvalid(t, fmt.Sprintf("QueryTopK%v", q), err)
				}
			}

			// Batches report the lowest bad index.
			qs := []unn.Point{good, bad[1], good, bad[0]}
			checkBatch := func(what string, err error) {
				t.Helper()
				isInvalid(t, what, err)
				if !strings.Contains(err.Error(), "batch query 1:") {
					t.Fatalf("%s: err = %v, want the failure at index 1", what, err)
				}
			}
			_, err = h.BatchNonzero(qs)
			checkBatch("BatchNonzero", err)
			_, err = h.BatchNonzeroInto(qs, nil)
			checkBatch("BatchNonzeroInto", err)
			_, err = h.BatchProbs(qs, 0)
			checkBatch("BatchProbs", err)
			_, err = h.BatchExpected(qs)
			checkBatch("BatchExpected", err)
			_, err = h.BatchTopK(qs, 3, 0)
			checkBatch("BatchTopK", err)

			// A non-finite eps fails before any work, batches included.
			for _, eps := range badEps {
				for rep := 0; rep < 2; rep++ {
					_, err = h.QueryProbs(good, eps)
					isInvalid(t, fmt.Sprintf("QueryProbs eps=%v", eps), err)
					_, err = h.QueryTopK(good, 3, eps)
					isInvalid(t, fmt.Sprintf("QueryTopK eps=%v", eps), err)
				}
				_, err = h.BatchProbs([]unn.Point{good, good}, eps)
				isInvalid(t, fmt.Sprintf("BatchProbs eps=%v", eps), err)
				_, err = h.BatchTopK([]unn.Point{good, good}, 3, eps)
				isInvalid(t, fmt.Sprintf("BatchTopK eps=%v", eps), err)
			}

			// Serve: each bad query fails alone in Answer.Err, runs of
			// same-kind queries included; good queries still answer.
			in := make(chan unn.Query, 4*len(kinds)*len(qs)+2*len(badEps))
			var seq uint64
			wantBad := map[uint64]bool{}
			for _, k := range kinds {
				for _, q := range qs {
					wantBad[seq] = q != good
					in <- unn.Query{Seq: seq, Kind: k, Q: q, K: 3}
					seq++
				}
			}
			for _, eps := range badEps {
				for _, k := range []unn.Capability{unn.CapProbs, unn.CapTopK} {
					wantBad[seq] = true
					in <- unn.Query{Seq: seq, Kind: k, Q: good, K: 3, Eps: eps}
					seq++
				}
			}
			close(in)
			n := 0
			for a := range h.Serve(context.Background(), in) {
				n++
				if wantBad[a.Seq] {
					isInvalid(t, fmt.Sprintf("Serve seq %d (%v)", a.Seq, a.Kind), a.Err)
				} else if a.Err != nil {
					t.Fatalf("Serve seq %d (%v): %v", a.Seq, a.Kind, a.Err)
				}
			}
			if n != int(seq) {
				t.Fatalf("Serve answered %d of %d queries", n, seq)
			}
		})
	}

	// The spiral search over an unsharded handle: a finite eps ≤ 0 gives
	// the full default π vector, a non-finite one an error.
	t.Run("spiral", func(t *testing.T) {
		h, err := unn.OpenDiscrete(testDiscretes(t, rng, 200, 3, 200), unn.WithBackend(unn.BackendSpiral))
		if err != nil {
			t.Fatal(err)
		}
		q := unn.Pt(100, 100)
		for _, eps := range []float64{0, -1} {
			ps, err := h.QueryProbs(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, p := range ps {
				sum += p.P
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("QueryProbs eps=%v: Σπ = %v, want 1", eps, sum)
			}
		}
		for _, eps := range badEps {
			_, err := h.QueryProbs(q, eps)
			isInvalid(t, fmt.Sprintf("spiral QueryProbs eps=%v", eps), err)
			_, err = h.QueryTopK(q, 3, eps)
			isInvalid(t, fmt.Sprintf("spiral QueryTopK eps=%v", eps), err)
			_, err = h.BatchProbs([]unn.Point{q}, eps)
			isInvalid(t, fmt.Sprintf("spiral BatchProbs eps=%v", eps), err)
			_, err = h.BatchTopK([]unn.Point{q}, 3, eps)
			isInvalid(t, fmt.Sprintf("spiral BatchTopK eps=%v", eps), err)
		}
	})
}

// TestRegionsRejectNonFinite is the build-and-insert half of the
// boundary contract: a region with a non-finite centre or location, or
// a NaN, ±Inf or negative radius, fails with ErrInvalidInput at Open*,
// Insert, InsertSquare and BatchMutate — the error names the lowest bad
// index and nothing is built or applied.
func TestRegionsRejectNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	disks := func(bad unn.Disk) []unn.Disk {
		return []unn.Disk{unn.DiskAt(0, 0, 1), unn.DiskAt(5, 0, 1), bad, unn.DiskAt(9, 9, 1), bad}
	}
	squares := func(bad unn.Square) []unn.Square {
		return []unn.Square{{C: unn.Pt(0, 0), R: 1}, {C: unn.Pt(5, 0), R: 1}, bad, {C: unn.Pt(9, 9), R: 1}, bad}
	}
	opens := []struct {
		name string
		open func() (*unn.Handle, error)
	}{
		{"OpenDisks NaN radius", func() (*unn.Handle, error) { return unn.OpenDisks(disks(unn.DiskAt(3, 3, nan))) }},
		{"OpenDisks negative radius", func() (*unn.Handle, error) { return unn.OpenDisks(disks(unn.DiskAt(3, 3, -1))) }},
		{"OpenDisks +Inf radius", func() (*unn.Handle, error) { return unn.OpenDisks(disks(unn.DiskAt(3, 3, inf))) }},
		{"OpenDisks NaN centre", func() (*unn.Handle, error) { return unn.OpenDisks(disks(unn.DiskAt(nan, 3, 1))) }},
		{"OpenDisks sharded", func() (*unn.Handle, error) {
			return unn.OpenDisks(disks(unn.DiskAt(3, 3, nan)), unn.WithShards(2))
		}},
		{"OpenSquares +Inf centre", func() (*unn.Handle, error) {
			return unn.OpenSquares(squares(unn.Square{C: unn.Pt(inf, 3), R: 1}))
		}},
		{"OpenSquares -Inf radius", func() (*unn.Handle, error) {
			return unn.OpenSquares(squares(unn.Square{C: unn.Pt(3, 3), R: math.Inf(-1)}))
		}},
		{"OpenSquares negative radius", func() (*unn.Handle, error) {
			return unn.OpenSquares(squares(unn.Square{C: unn.Pt(3, 3), R: -0.5}), unn.WithShards(2))
		}},
		{"Open truncated Gaussian NaN radius", func() (*unn.Handle, error) {
			pts := unn.Disks(disks(unn.DiskAt(3, 3, 1)))
			pts[2] = unn.NewTruncGauss(unn.DiskAt(3, 3, nan), 1)
			pts[4] = pts[2]
			return unn.Open(pts)
		}},
	}
	for _, tc := range opens {
		h, err := tc.open()
		if !errors.Is(err, unn.ErrInvalidInput) {
			t.Fatalf("%s: err = %v, want ErrInvalidInput", tc.name, err)
		}
		if h != nil {
			t.Fatalf("%s: got a handle with the error", tc.name)
		}
		if !strings.Contains(err.Error(), "item 2") {
			t.Fatalf("%s: err = %v, want it to name the lowest bad index 2", tc.name, err)
		}
	}

	dh, err := unn.OpenDisks(disks(unn.DiskAt(3, 3, 1)), unn.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := unn.OpenSquares(squares(unn.Square{C: unn.Pt(3, 3), R: 1}), unn.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	good := unn.UniformDisk{D: unn.DiskAt(4, 4, 1)}
	mutations := []struct {
		name   string
		h      *unn.Handle
		mutate func() error
		at     string // the lowest bad index the error must name
	}{
		{"Insert NaN radius", dh, func() error {
			_, err := dh.Insert(unn.UniformDisk{D: unn.DiskAt(1, 1, nan)})
			return err
		}, "mutation 0"},
		{"Insert +Inf centre", dh, func() error {
			_, err := dh.Insert(unn.UniformDisk{D: unn.DiskAt(1, inf, 1)})
			return err
		}, "mutation 0"},
		{"InsertSquare negative radius", sh, func() error {
			_, err := sh.InsertSquare(unn.Square{C: unn.Pt(1, 1), R: -1})
			return err
		}, "mutation 0"},
		{"BatchMutate lowest bad index", dh, func() error {
			_, err := dh.BatchMutate([]unn.Mutation{
				unn.InsertMutation(good),
				unn.DeleteMutation(0),
				unn.InsertMutation(unn.UniformDisk{D: unn.DiskAt(2, 2, -3)}),
				unn.InsertMutation(unn.UniformDisk{D: unn.DiskAt(nan, 2, 1)}),
			})
			return err
		}, "mutation 2"},
		{"BatchMutate square", sh, func() error {
			_, err := sh.BatchMutate([]unn.Mutation{
				unn.InsertSquareMutation(unn.Square{C: unn.Pt(2, 2), R: 1}),
				unn.InsertSquareMutation(unn.Square{C: unn.Pt(nan, 2), R: 1}),
			})
			return err
		}, "mutation 1"},
	}
	size := func(h *unn.Handle) int { return h.Index().(interface{ Len() int }).Len() }
	for _, tc := range mutations {
		n, epoch := size(tc.h), tc.h.Epoch()
		err := tc.mutate()
		if !errors.Is(err, unn.ErrInvalidInput) {
			t.Fatalf("%s: err = %v, want ErrInvalidInput", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.at) {
			t.Fatalf("%s: err = %v, want it to name %s", tc.name, err, tc.at)
		}
		if size(tc.h) != n || tc.h.Epoch() != epoch {
			t.Fatalf("%s: the rejected batch was applied (len %d→%d, epoch %d→%d)",
				tc.name, n, size(tc.h), epoch, tc.h.Epoch())
		}
	}
	// The rejected mutations left the handles answering: a query at the
	// centre of disk 2 finds it.
	if got, err := dh.QueryNonzero(unn.Pt(3, 3)); err != nil || len(got) == 0 {
		t.Fatalf("QueryNonzero after rejected mutations = %v, %v", got, err)
	}
}

// TestHandleEstimator: Threshold/TopK work against any probability-
// capable handle.
func TestHandleEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := testDiscretes(t, rng, 10, 3, 15)
	h, err := unn.OpenDiscrete(pts, unn.WithBackend(unn.BackendSpiral))
	if err != nil {
		t.Fatal(err)
	}
	q := unn.Pt(7, 7)
	top := unn.TopK(unn.HandleEstimator{H: h}, q, 3, 0.02)
	if len(top) == 0 || len(top) > 3 {
		t.Fatalf("TopK = %v", top)
	}
	for _, pr := range unn.Threshold(unn.HandleEstimator{H: h}, q, 0.25) {
		if pr.P < 0.25 {
			t.Fatalf("threshold returned %v", pr)
		}
	}
}

// TestHandleDynamic drives the public mutation API: Insert/Delete on a
// sharded handle track a freshly opened monolithic handle over the
// surviving points, the shard count responds to growth, and the answer
// cache never serves pre-mutation answers.
func TestHandleDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd1))
	const side = 50.0
	pool := testDiscretes(t, rng, 120, 2, side)
	live := append([]*unn.Discrete(nil), pool[:20]...)
	h, err := unn.OpenDiscrete(live, unn.WithShards(4), unn.WithCache(64, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !h.Mutable() {
		t.Fatal("sharded handle is not mutable")
	}
	before := h.ShardCount()
	for _, p := range pool[20:] {
		gi, err := h.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if gi != len(live) {
			t.Fatalf("Insert returned %d, want %d", gi, len(live))
		}
		live = append(live, p)
	}
	for i := 0; i < 30; i++ {
		di := rng.Intn(len(live))
		if err := h.Delete(di); err != nil {
			t.Fatal(err)
		}
		live = append(live[:di], live[di+1:]...)
	}
	if h.Epoch() != 130 {
		t.Fatalf("epoch = %d, want 130", h.Epoch())
	}
	if after := h.ShardCount(); after <= before {
		t.Fatalf("shard count did not grow under inserts (%d → %d)", before, after)
	}
	mono, err := unn.OpenDiscrete(live)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		q := unn.Pt(rng.Float64()*side, rng.Float64()*side)
		want, _ := mono.QueryNonzero(q)
		got, err := h.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
			t.Fatalf("q=%v: nonzero %v, want %v", q, got, want)
		}
		wi, wd, _ := mono.QueryExpected(q)
		gi, gd, err := h.QueryExpected(q)
		if err != nil {
			t.Fatal(err)
		}
		if wi != gi || wd != gd {
			t.Fatalf("q=%v: expected (%d,%v), want (%d,%v)", q, gi, gd, wi, wd)
		}
	}
}

// TestHandleBatchMutate drives the epoch-coalesced mutation path
// through the public API: a BatchMutate burst applies with sequential
// semantics and one epoch bump, the insert buffer absorbs inserts
// between flushes, and answers stay identical to a fresh monolithic
// handle over the survivors.
func TestHandleBatchMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(0xba7))
	const side = 50.0
	pool := testDiscretes(t, rng, 80, 2, side)
	live := append([]*unn.Discrete(nil), pool[:24]...)
	h, err := unn.OpenDiscrete(live, unn.WithShards(4), unn.WithInsertBuffer(8), unn.WithAutoCache(64))
	if err != nil {
		t.Fatal(err)
	}
	var ms []unn.Mutation
	for _, p := range pool[24:56] {
		ms = append(ms, unn.InsertMutation(p))
	}
	ms = append(ms, unn.DeleteMutation(0), unn.DeleteMutation(0))
	res, err := h.BatchMutate(ms)
	if err != nil {
		t.Fatal(err)
	}
	live = append(live, pool[24:56]...)[2:]
	if got, want := res[0], 24; got != want {
		t.Fatalf("first insert landed at %d, want %d", got, want)
	}
	if got, want := res[len(res)-1], len(live); got != want {
		t.Fatalf("final delete reported %d live items, want %d", got, want)
	}
	if h.Epoch() != 1 {
		t.Fatalf("epoch = %d after one batch, want 1", h.Epoch())
	}
	mono, err := unn.OpenDiscrete(live)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		q := unn.Pt(rng.Float64()*side, rng.Float64()*side)
		want, _ := mono.QueryNonzero(q)
		got, err := h.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
			t.Fatalf("q=%v: nonzero %v, want %v", q, got, want)
		}
	}
	// Option validation: the buffer needs the sharded layer, and batches
	// on monolithic handles report ErrImmutable.
	if _, err := unn.OpenDiscrete(pool[:8], unn.WithInsertBuffer(0)); err == nil {
		t.Fatal("WithInsertBuffer without WithShards was accepted")
	}
	if _, err := mono.BatchMutate([]unn.Mutation{unn.DeleteMutation(0)}); !errors.Is(err, unn.ErrImmutable) {
		t.Fatalf("BatchMutate on monolithic handle: err = %v, want ErrImmutable", err)
	}
}

// TestHandleImmutable: monolithic handles refuse mutations.
func TestHandleImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1a1))
	pts := testDiscretes(t, rng, 8, 2, 20)
	h, err := unn.OpenDiscrete(pts)
	if err != nil {
		t.Fatal(err)
	}
	if h.Mutable() {
		t.Fatal("monolithic handle reports Mutable")
	}
	if _, err := h.Insert(pts[0]); !errors.Is(err, unn.ErrImmutable) {
		t.Fatalf("Insert err = %v, want ErrImmutable", err)
	}
	if err := h.Delete(0); !errors.Is(err, unn.ErrImmutable) {
		t.Fatalf("Delete err = %v, want ErrImmutable", err)
	}
	if h.ShardCount() != 0 {
		t.Fatalf("monolithic ShardCount = %d, want 0", h.ShardCount())
	}
}

// TestOpenSquaresShardedProbs is the regression for the squares-only
// sharded merge: QueryProbs on an OpenSquares handle with WithShards
// must answer ErrUnsupported (no squares backend quantifies) — it used
// to panic on the dataset's absent Points view. Mutations keep working.
func TestOpenSquaresShardedProbs(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5c))
	squares := make([]unn.Square, 12)
	for i := range squares {
		squares[i] = unn.Square{C: unn.Pt(rng.Float64()*30, rng.Float64()*30), R: 0.4 + rng.Float64()}
	}
	h, err := unn.OpenSquares(squares, unn.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.QueryProbs(unn.Pt(5, 5), 0); !errors.Is(err, unn.ErrUnsupported) {
		t.Fatalf("QueryProbs err = %v, want ErrUnsupported", err)
	}
	extra := unn.Square{C: unn.Pt(31, 31), R: 0.5}
	if _, err := h.InsertSquare(extra); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(0); err != nil {
		t.Fatal(err)
	}
	mono, err := unn.OpenSquares(append(squares[1:12:12], extra))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		q := unn.Pt(rng.Float64()*32, rng.Float64()*32)
		want, _ := mono.QueryNonzero(q)
		got, err := h.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
			t.Fatalf("q=%v: nonzero %v, want %v", q, got, want)
		}
	}
}

// TestOpenWithPlanner: the cost-based planner through the public API —
// full capability set, parity with the rule-based auto handle, Explain
// with cost estimates, Stats counters, and the option-combination
// errors.
func TestOpenWithPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(0x91a))
	pts := testDiscretes(t, rng, 40, 3, 60)
	h, err := unn.OpenDiscrete(pts, unn.WithPlanner())
	if err != nil {
		t.Fatal(err)
	}
	auto, err := unn.OpenDiscrete(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Capabilities().Has(auto.Capabilities()) {
		t.Fatalf("planner caps %v lost some of auto's %v", h.Capabilities(), auto.Capabilities())
	}
	for i := 0; i < 12; i++ {
		q := unn.Pt(rng.Float64()*60, rng.Float64()*60)
		want, err := auto.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
			t.Fatalf("q=%v: planner NN≠0 %v, want %v", q, got, want)
		}
		wi, wd, err := auto.QueryExpected(q)
		if err != nil {
			t.Fatal(err)
		}
		gi, gd, err := h.QueryExpected(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gd-wd) > 1e-9 || (gi != wi && gd != wd) {
			t.Fatalf("q=%v: planner E[d] (%d,%v), want (%d,%v)", q, gi, gd, wi, wd)
		}
	}
	expl := h.Explain()
	if !strings.Contains(expl, "plan: n=40") {
		t.Fatalf("Explain missing the plan header:\n%s", expl)
	}
	st := h.Stats()
	if st.Kind(unn.QueryKindNonzero).Count == 0 || st.Kind(unn.QueryKindExpected).Count == 0 {
		t.Fatalf("Stats counters empty after queries: %+v", st)
	}
	// WithPlanner replaces the backend choice: pinning a backend too is a
	// contradiction.
	if _, err := unn.OpenDiscrete(pts, unn.WithPlanner(), unn.WithBackend(unn.BackendBrute)); err == nil {
		t.Fatal("WithPlanner + WithBackend accepted")
	}
	// A missing calibration table fails Open, not silently.
	if _, err := unn.OpenDiscrete(pts, unn.WithCalibration("/nonexistent/bench.json")); err == nil {
		t.Fatal("WithCalibration over a missing file accepted")
	}
	// An all-π mix still serves every kind.
	hm, err := unn.OpenDiscrete(pts, unn.WithPlannerMix(0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hm.QueryNonzero(unn.Pt(1, 1)); err != nil {
		t.Fatalf("zero-weight kind stopped working: %v", err)
	}
}

// TestOpenAutoCache: the adaptive cache quantum resolves from the built
// structure and shows up in Stats.
func TestOpenAutoCache(t *testing.T) {
	rng := rand.New(rand.NewSource(0xcac))
	pts := testDiscretes(t, rng, 24, 2, 30)
	h, err := unn.OpenDiscrete(pts, unn.WithAutoCache(64))
	if err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.CacheQuantum <= 0 {
		t.Fatalf("adaptive cache quantum = %v, want > 0", st.CacheQuantum)
	}
	q := unn.Pt(15, 15)
	if _, err := h.QueryNonzero(q); err != nil {
		t.Fatal(err)
	}
	if _, err := h.QueryNonzero(unn.Pt(q.X+st.CacheQuantum/64, q.Y)); err != nil {
		t.Fatal(err)
	}
	if hits, _ := h.CacheStats(); hits == 0 {
		t.Fatal("nearby queries missed the adaptive-quantum cache")
	}
}

// TestOpenPlannerSharded: planner + shards composes with the dynamic
// mutation API end to end.
func TestOpenPlannerSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5a9))
	pts := testDiscretes(t, rng, 30, 2, 50)
	h, err := unn.OpenDiscrete(pts, unn.WithPlanner(), unn.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if !h.Mutable() {
		t.Fatal("sharded planner handle is not mutable")
	}
	extra := testDiscretes(t, rng, 1, 2, 50)[0]
	if _, err := h.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(0); err != nil {
		t.Fatal(err)
	}
	mono, err := unn.OpenDiscrete(append(pts[1:30:30], extra))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		q := unn.Pt(rng.Float64()*50, rng.Float64()*50)
		want, _ := mono.QueryNonzero(q)
		got, err := h.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
			t.Fatalf("q=%v: nonzero %v, want %v", q, got, want)
		}
	}
	if expl := h.Explain(); !strings.Contains(expl, "shard 0") {
		t.Fatalf("sharded planner Explain missing shard lines:\n%s", expl)
	}
}

// TestAdaptivePlannerHandle covers the public adaptive-loop surface:
// the option demands sharding, a manual Replan installs a fresh plan
// without changing any answer, and Stats/Explain report the loop.
func TestAdaptivePlannerHandle(t *testing.T) {
	rng := rand.New(rand.NewSource(0xada))
	pts := testDiscretes(t, rng, 60, 2, 50)
	if _, err := unn.OpenDiscrete(pts, unn.WithAdaptivePlanner()); err == nil {
		t.Fatal("WithAdaptivePlanner without WithShards was accepted")
	}
	h, err := unn.OpenDiscrete(pts, unn.WithAdaptivePlanner(), unn.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	mono, err := unn.OpenDiscrete(pts)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := h.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("manual Replan on a quiescent handle did not install")
	}
	st := h.Stats()
	if st.Replans != 1 || st.LastReplanReason == "" {
		t.Fatalf("Stats after Replan = (%d, %q)", st.Replans, st.LastReplanReason)
	}
	if len(st.ShardTemps) != 3 {
		t.Fatalf("ShardTemps = %v, want 3 entries", st.ShardTemps)
	}
	if expl := h.Explain(); !strings.Contains(expl, "adaptive:") {
		t.Fatalf("Explain missing the adaptive block:\n%s", expl)
	}
	for i := 0; i < 12; i++ {
		q := unn.Pt(rng.Float64()*50, rng.Float64()*50)
		want, _ := mono.QueryNonzero(q)
		got, err := h.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
			t.Fatalf("q=%v post-replan nonzero %v, want %v", q, got, want)
		}
	}
	// The loop without the planner knob still implies planning (the
	// option sets it), and a plain non-adaptive handle refuses Replan.
	if _, err := mono.Replan(); err == nil {
		t.Fatal("Replan on a non-adaptive handle did not error")
	}
}
