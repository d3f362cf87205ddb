package engine

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"unn/internal/constructions"
	"unn/internal/geom"
	"unn/internal/lmetric"
	"unn/internal/snapshot"
	"unn/internal/uncertain"
)

// roundTrip snapshots e, restores it, and returns the restored engine
// plus the snapshot size.
func roundTrip(t *testing.T, e *Engine) (*Engine, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, e); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	re, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	return re, buf.Len()
}

// assertParity checks the restored engine answers every supported query
// kind bit-identically to the live one.
func assertParity(t *testing.T, live, restored *Engine, qs []geom.Point) {
	t.Helper()
	if got, want := restored.Explain(), live.Explain(); got != want {
		t.Errorf("Explain diverged after restore:\n--- live ---\n%s--- restored ---\n%s", want, got)
	}
	if got, want := restored.CacheQuantum(), live.CacheQuantum(); got != want {
		t.Errorf("cache quantum %v, want %v", got, want)
	}
	caps := live.Capabilities()
	if got := restored.Capabilities(); got != caps {
		t.Fatalf("capabilities %v, want %v", got, caps)
	}
	for qi, q := range qs {
		if caps.Has(CapNonzero) {
			want, err1 := live.QueryNonzero(q)
			got, err2 := restored.QueryNonzero(q)
			if err1 != nil || err2 != nil {
				t.Fatalf("q%d nonzero errs: live %v restored %v", qi, err1, err2)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("q%d nonzero = %v, want %v", qi, got, want)
			}
		}
		if caps.Has(CapProbs) {
			want, err1 := live.QueryProbs(q, 0)
			got, err2 := restored.QueryProbs(q, 0)
			if err1 != nil || err2 != nil {
				t.Fatalf("q%d probs errs: live %v restored %v", qi, err1, err2)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("q%d probs = %v, want %v", qi, got, want)
			}
		}
		if caps.Has(CapExpected) {
			wi, wd, err1 := live.QueryExpected(q)
			gi, gd, err2 := restored.QueryExpected(q)
			if err1 != nil || err2 != nil {
				t.Fatalf("q%d expected errs: live %v restored %v", qi, err1, err2)
			}
			if gi != wi || gd != wd {
				t.Fatalf("q%d expected = (%d, %v), want (%d, %v)", qi, gi, gd, wi, wd)
			}
		}
		if caps.Has(CapTopK) {
			want, err1 := live.QueryTopK(q, 3, 0)
			got, err2 := restored.QueryTopK(q, 3, 0)
			if err1 != nil || err2 != nil {
				t.Fatalf("q%d topk errs: live %v restored %v", qi, err1, err2)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("q%d topk = %v, want %v", qi, got, want)
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5a45))
	disks := FromDisks(constructions.RandomDisks(rng, 60, 40, 0.5, 2.0))
	discrete := FromDiscrete(constructions.RandomDiscrete(rng, 60, 4, 40, 1.0, 1))
	squares := FromSquares(randSquares(rng, 60, 40))
	qs := randQueries(rng, 40, 44)

	cases := []struct {
		name  string
		build func(t *testing.T) *Engine
	}{
		{"sharded-named-disks", func(t *testing.T) *Engine {
			ix, err := BuildSharded(BackendTwoStageDisks, disks, BuildOptions{}, ShardOptions{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{CacheSize: 64, CacheQuantum: -1})
		}},
		{"sharded-named-brute-discrete", func(t *testing.T) *Engine {
			ix, err := BuildSharded(BackendBrute, discrete, BuildOptions{}, ShardOptions{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}},
		{"sharded-auto-discrete", func(t *testing.T) *Engine {
			ix, err := BuildAuto(discrete, BuildOptions{}, ShardOptions{Shards: 4, Split: SplitGrid})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}},
		{"sharded-auto-disks-routed", func(t *testing.T) *Engine {
			// Continuous family: each shard is a brute+montecarlo composite,
			// exercising the routed and rebuild restore paths.
			ix, err := BuildAuto(disks, BuildOptions{MCRounds: 16}, ShardOptions{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}},
		{"sharded-planned-discrete", func(t *testing.T) *Engine {
			ix, _, err := BuildPlanned(discrete, BuildOptions{}, ShardOptions{Shards: 4},
				PlannerOptions{Mix: Workload{Nonzero: 1, Probs: 0.1}})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{CacheSize: 32, CacheQuantum: 0.25})
		}},
		{"sharded-linf", func(t *testing.T) *Engine {
			ix, err := BuildSharded(BackendTwoStageLinf, squares, BuildOptions{}, ShardOptions{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}},
		{"sharded-l1", func(t *testing.T) *Engine {
			ix, err := BuildSharded(BackendTwoStageL1, squares, BuildOptions{}, ShardOptions{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}},
		{"sharded-more-shards-than-items", func(t *testing.T) *Engine {
			tiny := FromDiscrete(constructions.RandomDiscrete(rng, 3, 2, 10, 1.0, 1))
			ix, err := BuildSharded(BackendBrute, tiny, BuildOptions{}, ShardOptions{Shards: 8})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}},
		{"plain-named-disks", func(t *testing.T) *Engine {
			ix, err := Build(BackendTwoStageDisks, disks, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}},
		{"plain-auto-discrete", func(t *testing.T) *Engine {
			ix, err := BuildAuto(discrete, BuildOptions{}, ShardOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{CacheSize: 16, CacheQuantum: -1})
		}},
		{"plain-auto-disks-routed", func(t *testing.T) *Engine {
			ix, err := BuildAuto(disks, BuildOptions{MCRounds: 16}, ShardOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}},
		{"plain-planned-discrete", func(t *testing.T) *Engine {
			ix, _, err := BuildPlanned(discrete, BuildOptions{}, ShardOptions{},
				PlannerOptions{Mix: Workload{Nonzero: 1, Expected: 0.5}})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}},
		{"plain-named-l1", func(t *testing.T) *Engine {
			ix, err := Build(BackendTwoStageL1, squares, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}},
		{"plain-rebuild-diagram", func(t *testing.T) *Engine {
			small := FromDisks(constructions.RandomDisks(rng, 10, 20, 0.5, 2.0))
			ix, err := Build(BackendDiagram, small, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(ix, Options{})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live := tc.build(t)
			restored, _ := roundTrip(t, live)
			assertParity(t, live, restored, qs)
		})
	}
}

func TestSnapshotAfterMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0a75))
	pts := constructions.RandomDiscrete(rng, 80, 3, 40, 1.0, 1)
	build := func() *Engine {
		ix, err := BuildSharded(BackendBrute, FromDiscrete(pts), BuildOptions{},
			ShardOptions{Shards: 4, InsertBuffer: true, FlushThreshold: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return NewEngine(ix, Options{})
	}
	live := build()

	// A burst of batched inserts and deletes, sized to leave the insert
	// buffer non-empty at snapshot time.
	extra := constructions.RandomDiscrete(rng, 12, 3, 40, 1.0, 1)
	var ms []Mutation
	for _, p := range extra {
		ms = append(ms, InsertMutation(Item{Point: p}))
	}
	ms = append(ms, DeleteMutation(5), DeleteMutation(31), DeleteMutation(0))
	if _, err := live.BatchMutate(ms); err != nil {
		t.Fatalf("BatchMutate: %v", err)
	}
	sx := live.Index().(*ShardedIndex)
	if buffered, _, _ := sx.BufferStats(); buffered == 0 {
		t.Fatal("test setup: insert buffer empty at snapshot time")
	}

	restored, _ := roundTrip(t, live)
	qs := randQueries(rng, 50, 44)
	assertParity(t, live, restored, qs)

	// Epoch and buffer counters survive.
	if got, want := restored.Epoch(), live.Epoch(); got != want {
		t.Errorf("epoch = %d, want %d", got, want)
	}
	rsx := restored.Index().(*ShardedIndex)
	lb, li, lf := sx.BufferStats()
	rb, ri, rf := rsx.BufferStats()
	if rb != lb || ri != li || rf != lf {
		t.Errorf("BufferStats = (%d,%d,%d), want (%d,%d,%d)", rb, ri, rf, lb, li, lf)
	}

	// The restored handle stays mutable and tracks the live one through
	// further mutations.
	more := constructions.RandomDiscrete(rng, 5, 2, 40, 1.0, 1)
	var ms2 []Mutation
	for _, p := range more {
		ms2 = append(ms2, InsertMutation(Item{Point: p}))
	}
	ms2 = append(ms2, DeleteMutation(2))
	if _, err := live.BatchMutate(ms2); err != nil {
		t.Fatalf("live BatchMutate: %v", err)
	}
	if _, err := restored.BatchMutate(ms2); err != nil {
		t.Fatalf("restored BatchMutate: %v", err)
	}
	assertParity(t, live, restored, qs)
}

func TestSnapshotRejectsContinuous(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	disks := constructions.RandomDisks(rng, 8, 20, 0.5, 2.0)
	pts := make([]uncertain.Point, len(disks))
	for i, d := range disks {
		pts[i] = uncertain.NewTruncGauss(d, 0.5)
	}
	ix, err := BuildAuto(FromPoints(pts), BuildOptions{MCRounds: 8}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ix, Options{})
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, e); err == nil {
		t.Fatal("WriteSnapshot accepted a truncated-Gaussian dataset")
	}
}

func TestSnapshotDecodeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	discrete := FromDiscrete(constructions.RandomDiscrete(rng, 20, 3, 20, 1.0, 1))
	ix, err := BuildSharded(BackendBrute, discrete, BuildOptions{}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, NewEngine(ix, Options{})); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := ReadSnapshot(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	for cut := 1; cut < len(good); cut += len(good)/17 + 1 {
		if _, err := ReadSnapshot(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Single-byte corruptions must never panic; many will still decode
	// (flipped float payloads are valid), but structural damage must
	// surface as an error, not a crash.
	for pos := 0; pos < len(good); pos += len(good)/101 + 1 {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0xff
		_, _ = ReadSnapshot(bytes.NewReader(bad))
	}
}

// TestSnapshotRejectsBadRegions: decode refuses a dataset row with a
// non-finite centre or a NaN, ±Inf or negative radius — rows the
// public constructors reject (CheckDataset), written here through the
// unchecked engine builders — so a restored index never holds a region
// its answers cannot be correct for.
func TestSnapshotRejectsBadRegions(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []geom.Disk{
		geom.DiskAt(3, 3, nan), geom.DiskAt(3, 3, -1), geom.DiskAt(3, 3, inf), geom.DiskAt(inf, 3, 1),
	} {
		disks := []geom.Disk{geom.DiskAt(0, 0, 1), bad, geom.DiskAt(6, 6, 1)}
		if err := CheckDataset(FromDisks(disks)); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("CheckDataset(%v) = %v, want ErrInvalidInput", bad, err)
		}
		ix, err := BuildSharded(BackendBrute, FromDisks(disks), BuildOptions{}, ShardOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, NewEngine(ix, Options{})); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("ReadSnapshot with disk %v: err = %v, want ErrCorrupt", bad, err)
		}
	}
	sqs := []lmetric.Square{{C: geom.Pt(0, 0), R: 1}, {C: geom.Pt(nan, 1), R: 1}}
	ix, err := BuildSharded(BackendTwoStageLinf, FromSquares(sqs), BuildOptions{}, ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, NewEngine(ix, Options{})); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("ReadSnapshot with a NaN square centre: err = %v, want ErrCorrupt", err)
	}
}

func FuzzSnapshotDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	discrete := FromDiscrete(constructions.RandomDiscrete(rng, 12, 2, 20, 1.0, 1))
	ix, err := BuildSharded(BackendBrute, discrete, BuildOptions{}, ShardOptions{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, NewEngine(ix, Options{})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	disks := FromDisks(constructions.RandomDisks(rng, 10, 20, 0.5, 2.0))
	ix2, err := Build(BackendTwoStageDisks, disks, BuildOptions{})
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := WriteSnapshot(&buf, NewEngine(ix2, Options{})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or over-allocate; a successful decode must
		// yield a queryable engine.
		e, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if e.Capabilities().Has(CapNonzero) {
			_, _ = e.QueryNonzero(geom.Pt(1, 2))
		}
	})
}
