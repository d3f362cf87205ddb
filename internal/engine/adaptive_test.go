package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unn/internal/constructions"
	"unn/internal/geom"
	"unn/internal/quantify"
)

// adaptiveFixture builds a planner-built sharded discrete engine with
// the adaptive loop enabled, planned for a π-heavy mix so an
// E[d]-heavy stream later constitutes drift.
func adaptiveFixture(t *testing.T, n, shards int, aopt AdaptiveOptions) (*Engine, *ShardedIndex, *Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(0x5eed))
	pts := constructions.RandomDiscrete(rng, n, 3, 90, 2.0, 1)
	ds := FromDiscrete(pts)
	ix, _, err := BuildPlanned(ds, BuildOptions{}, ShardOptions{Shards: shards},
		PlannerOptions{Mix: Workload{Probs: 1, Nonzero: 0.25, Expected: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	sx, ok := ix.(*ShardedIndex)
	if !ok {
		t.Fatalf("BuildPlanned with %d shards returned %T, want *ShardedIndex", shards, ix)
	}
	eng := NewEngine(ix, Options{AdaptiveReplan: &aopt})
	if eng.adapt == nil {
		t.Fatal("adaptive controller not wired on a planner-built sharded fleet")
	}
	return eng, sx, ds
}

// TestObserverWindowDelta pins the delta-window contract: only samples
// since the previous call contribute, an unchanged snapshot yields an
// empty window, and a counter that moved backwards restarts.
func TestObserverWindowDelta(t *testing.T) {
	var o Observer
	var cum [numKinds]KindStats
	cum[slotNonzero] = KindStats{Count: 10, TotalNs: 1000}
	win := o.Window(cum)
	if win[slotNonzero].Count != 10 || win[slotNonzero].TotalNs != 1000 {
		t.Fatalf("first window = %+v, want the full snapshot", win[slotNonzero])
	}
	// Same snapshot again: nothing new.
	win = o.Window(cum)
	if win[slotNonzero].Count != 0 || win[slotNonzero].TotalNs != 0 {
		t.Fatalf("repeated snapshot produced a non-empty window %+v", win[slotNonzero])
	}
	// Advance: only the delta.
	cum[slotNonzero] = KindStats{Count: 25, TotalNs: 4000}
	win = o.Window(cum)
	if win[slotNonzero].Count != 15 || win[slotNonzero].TotalNs != 3000 {
		t.Fatalf("delta window = %+v, want {15 3000}", win[slotNonzero])
	}
	// Backwards (fresh engine reusing the observer): restart, empty window.
	cum[slotNonzero] = KindStats{Count: 3, TotalNs: 500}
	win = o.Window(cum)
	if win[slotNonzero].Count != 0 {
		t.Fatalf("backwards counter produced window %+v, want empty", win[slotNonzero])
	}
	cum[slotNonzero] = KindStats{Count: 5, TotalNs: 900}
	win = o.Window(cum)
	if win[slotNonzero].Count != 2 || win[slotNonzero].TotalNs != 400 {
		t.Fatalf("post-restart delta = %+v, want {2 400}", win[slotNonzero])
	}
}

// TestDetectDrift exercises the detector's three outcomes: silent when
// the profile matches the plan, firing on a mix shift, firing on an
// estimate error — and staying silent for kinds under the share floor.
func TestDetectDrift(t *testing.T) {
	th := DriftThresholds{} // defaults: factor 4, TV 0.35
	var mean, mix, ref, planMix [numKinds]float64
	planMix[slotProbs], planMix[slotNonzero] = 0.8, 0.2
	mix = planMix
	mean[slotProbs], mean[slotNonzero] = 5000, 800
	ref = mean
	if r := detectDrift(mean, mix, ref, planMix, th); r != "" {
		t.Fatalf("matched profile fired: %q", r)
	}
	// Mix flip: probs-heavy plan, expected-heavy traffic.
	mix = [numKinds]float64{}
	mix[slotExpected], mix[slotNonzero] = 0.9, 0.1
	if r := detectDrift(mean, mix, ref, planMix, th); !strings.Contains(r, "mix shifted") {
		t.Fatalf("flipped mix reason = %q, want a mix-shift reason", r)
	}
	// Estimate error: same mix, one kind 10x its reference.
	mix = planMix
	mean[slotProbs] = ref[slotProbs] * 10
	if r := detectDrift(mean, mix, ref, planMix, th); !strings.Contains(r, "latency") {
		t.Fatalf("10x latency reason = %q, want an estimate-error reason", r)
	}
	// The same error on a kind under the share floor is noise, not signal.
	mean[slotProbs] = ref[slotProbs]
	mean[slotExpected], ref[slotExpected] = 99999, 1
	mix[slotProbs], mix[slotNonzero], mix[slotExpected] = 0.78, 0.19, 0.03
	if r := detectDrift(mean, mix, ref, planMix, th); r != "" {
		t.Fatalf("sub-floor kind fired: %q", r)
	}
}

// TestObserveIntoDeltaWindows is the double-count regression: repeated
// ObserveInto calls with no traffic in between must leave the cost
// model untouched — the old one-shot implementation re-blended the full
// cumulative means on every call.
func TestObserveIntoDeltaWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 80, 3, 60, 2.0, 1))
	ix, _, err := BuildPlanned(ds, BuildOptions{}, ShardOptions{}, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ix, Options{})
	for i := 0; i < 50; i++ {
		q := geom.Pt(rng.Float64()*60, rng.Float64()*60)
		if _, err := eng.QueryNonzero(q); err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.QueryExpected(q); err != nil {
			t.Fatal(err)
		}
	}
	model := NewCostModel(nil)
	before := model.Coefficients()
	eng.ObserveInto(model)
	after1 := model.Coefficients()
	if reflect.DeepEqual(before, after1) {
		t.Fatal("first ObserveInto left the model untouched despite recorded traffic")
	}
	// No new traffic: the second call must consume an empty window.
	eng.ObserveInto(model)
	if got := model.Coefficients(); !reflect.DeepEqual(after1, got) {
		t.Fatalf("ObserveInto with no new traffic moved coefficients:\nfirst:  %v\nsecond: %v", after1, got)
	}
	// Fresh traffic opens a fresh window and moves the model again.
	for i := 0; i < 50; i++ {
		q := geom.Pt(rng.Float64()*60, rng.Float64()*60)
		if _, err := eng.QueryNonzero(q); err != nil {
			t.Fatal(err)
		}
	}
	eng.ObserveInto(model)
	if got := model.Coefficients(); reflect.DeepEqual(after1, got) {
		t.Fatal("ObserveInto ignored the fresh window")
	}
}

// TestAdaptiveDriftReplans is the loop end to end: a π-heavy plan
// observes an E[d]-heavy stream, detects the flip, replans and swaps —
// and the swapped fleet still answers exactly (NN≠0 bit-identical, π
// and E[d] within 1e-12 of a fresh monolithic oracle).
func TestAdaptiveDriftReplans(t *testing.T) {
	eng, _, ds := adaptiveFixture(t, 400, 4, AdaptiveOptions{Window: 64, Cooldown: 1})
	rng := rand.New(rand.NewSource(11))
	pt := func() geom.Point { return geom.Pt(rng.Float64()*90, rng.Float64()*90) }

	// Phase A: traffic matching the plan's mix — the profile warms up and
	// no replan fires.
	for w := 0; w < 3; w++ {
		for i := 0; i < 52; i++ {
			if _, err := eng.QueryProbs(pt(), 1e-3); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 13; i++ {
			if _, err := eng.QueryNonzero(pt()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := eng.Stats(); st.Replans != 0 {
		t.Fatalf("replan fired under the planned mix: %d (%s)", st.Replans, st.LastReplanReason)
	}

	// Phase B: the stream flips E[d]-heavy. Keep querying until the loop
	// notices — the tick runs inline on the query path and the replan on
	// its own goroutine, so poll Stats with a deadline.
	deadline := time.Now().Add(15 * time.Second)
	for eng.Stats().Replans == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no replan within deadline; Explain:\n%s", eng.Explain())
		}
		for i := 0; i < 58; i++ {
			if _, _, err := eng.QueryExpected(pt()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6; i++ {
			if _, err := eng.QueryNonzero(pt()); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := eng.Stats()
	if st.LastReplanReason == "" {
		t.Error("replan recorded no reason")
	}
	if len(st.ShardTemps) != 4 {
		t.Fatalf("ShardTemps = %v, want 4 entries", st.ShardTemps)
	}
	sum := 0.0
	for _, temp := range st.ShardTemps {
		sum += temp
	}
	if sum <= 0 {
		t.Errorf("all shard temperatures cold after observed traffic: %v", st.ShardTemps)
	}
	if ex := eng.Explain(); !strings.Contains(ex, "adaptive: window 64 queries") ||
		!strings.Contains(ex, st.LastReplanReason) {
		t.Errorf("Explain missing the adaptive block or reason:\n%s", ex)
	}

	// Post-swap parity against a fresh monolithic oracle on the same
	// dataset: the replan must not have changed any answer.
	pts := ds.Discrete
	for trial := 0; trial < 24; trial++ {
		q := pt()
		nz, err := eng.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteNonzero(ds, q); !reflect.DeepEqual(nz, want) {
			t.Fatalf("q=%v post-replan nonzero = %v, want %v", q, nz, want)
		}
		ps, err := eng.QueryProbs(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		probsWithin(t, "post-replan", ps, quantify.ExactPositive(pts, q), 1e-12)
		gi, gd, err := eng.QueryExpected(q)
		if err != nil {
			t.Fatal(err)
		}
		wi, wd := -1, math.Inf(1)
		for i, p := range pts {
			if d := p.ExpectedDist(q); d < wd {
				wi, wd = i, d
			}
		}
		if gi != wi || math.Abs(gd-wd) > 1e-12*math.Max(1, math.Abs(wd)) {
			t.Fatalf("q=%v post-replan expected = (%d, %v), want (%d, %v)", q, gi, gd, wi, wd)
		}
	}
}

// TestReplanManual pins the manual trigger: it errors on an engine
// without the loop, installs a plan synchronously on one with it, and
// shows up in Stats and Explain.
func TestReplanManual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 80, 3, 60, 2.0, 1))
	plain, _, err := BuildPlanned(ds, BuildOptions{}, ShardOptions{}, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(plain, Options{}).Replan(); err == nil {
		t.Fatal("Replan on a non-adaptive engine did not error")
	}
	// AdaptiveReplan on a non-sharded index is ignored, not an error: the
	// loop replans per shard, so there is nothing for it to do.
	if _, err := NewEngine(plain, Options{AdaptiveReplan: &AdaptiveOptions{}}).Replan(); err == nil {
		t.Fatal("Replan on a monolithic engine did not error")
	}

	eng, sx, _ := adaptiveFixture(t, 200, 4, AdaptiveOptions{})
	epoch0 := func() uint64 {
		sx.mu.RLock()
		defer sx.mu.RUnlock()
		return sx.epoch
	}()
	ok, err := eng.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("manual replan on a quiescent fleet did not install")
	}
	sx.mu.RLock()
	epoch1 := sx.epoch
	sx.mu.RUnlock()
	if epoch1 != epoch0+1 {
		t.Errorf("swap advanced epoch %d → %d, want +1", epoch0, epoch1)
	}
	st := eng.Stats()
	if st.Replans != 1 || st.LastReplanReason != "manual replan" {
		t.Errorf("Stats after manual replan = (%d, %q)", st.Replans, st.LastReplanReason)
	}
	if ex := eng.Explain(); !strings.Contains(ex, "1 replans (last: manual replan)") {
		t.Errorf("Explain missing the replan history:\n%s", ex)
	}
}

// TestAdaptiveReplanChurn hammers queries and mutations against
// concurrent replan-swaps (run under -race in the Makefile race leg):
// no call may error, the mutation epoch must be monotone, and once the
// churn quiesces the fleet must still answer exactly.
func TestAdaptiveReplanChurn(t *testing.T) {
	eng, sx, _ := adaptiveFixture(t, 200, 4, AdaptiveOptions{Window: 32, Cooldown: 1})
	rng := rand.New(rand.NewSource(99))
	extra := constructions.RandomDiscrete(rng, 64, 3, 90, 2.0, 1)

	iters := 400
	if raceEnabled {
		iters = 150
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Query hammers: each goroutine owns its rng (rand.Rand is not
	// concurrency-safe).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				q := geom.Pt(r.Float64()*90, r.Float64()*90)
				if _, err := eng.QueryNonzero(q); err != nil {
					fail(err)
					return
				}
				if _, _, err := eng.QueryExpected(q); err != nil {
					fail(err)
					return
				}
			}
		}(int64(g) + 1)
	}

	// Mutation churn: inserts bump the epoch and occasionally collide
	// with an in-flight replan build, exercising the stale-swap fence.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := eng.Insert(Item{Point: extra[i%len(extra)]}); err != nil {
				fail(err)
				return
			}
			if i%3 == 0 {
				if err := eng.Delete(0); err != nil {
					fail(err)
					return
				}
			}
		}
	}()

	// Replan churn, watching the epoch for monotonicity.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := uint64(0)
		for i := 0; i < iters/4; i++ {
			if _, err := eng.Replan(); err != nil {
				fail(err)
				return
			}
			sx.mu.RLock()
			ep := sx.epoch
			sx.mu.RUnlock()
			if ep < last {
				fail(fmt.Errorf("epoch regressed: %d then %d", last, ep))
				return
			}
			last = ep
		}
		stop.Store(true)
	}()
	wg.Wait()
	stop.Store(true)
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Quiesced: the surviving fleet answers exactly on its final dataset.
	sx.mu.RLock()
	final := sx.ds
	sx.mu.RUnlock()
	for trial := 0; trial < 16; trial++ {
		q := geom.Pt(rng.Float64()*90, rng.Float64()*90)
		nz, err := eng.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteNonzero(final, q); !reflect.DeepEqual(nz, want) {
			t.Fatalf("q=%v post-churn nonzero = %v, want %v", q, nz, want)
		}
	}
}

// TestAdaptiveSnapshotRoundTrip drives traffic until the shard
// temperatures are warm, forces a replan, and asserts the whole
// adaptive state — temps, replan count, last reason, and the enabled
// loop itself — survives a snapshot round trip.
func TestAdaptiveSnapshotRoundTrip(t *testing.T) {
	eng, _, _ := adaptiveFixture(t, 200, 4, AdaptiveOptions{Window: 32, Cooldown: 1})
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 3*32+8; i++ {
		if _, err := eng.QueryNonzero(geom.Pt(rng.Float64()*90, rng.Float64()*90)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Replan(); err != nil {
		t.Fatal(err)
	}
	want := eng.Stats()
	sumTemps := func(ts []float64) float64 {
		s := 0.0
		for _, v := range ts {
			s += v
		}
		return s
	}
	if sumTemps(want.ShardTemps) <= 0 {
		t.Fatalf("fixture never warmed: temps %v", want.ShardTemps)
	}

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, eng); err != nil {
		t.Fatal(err)
	}
	eng2, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := eng2.Stats()
	if got.Replans != want.Replans || got.LastReplanReason != want.LastReplanReason {
		t.Errorf("restored replan history = (%d, %q), want (%d, %q)",
			got.Replans, got.LastReplanReason, want.Replans, want.LastReplanReason)
	}
	if !reflect.DeepEqual(got.ShardTemps, want.ShardTemps) {
		t.Errorf("restored shard temps = %v, want %v", got.ShardTemps, want.ShardTemps)
	}
	// The restored loop is live, not just reported: a manual replan works.
	if ok, err := eng2.Replan(); err != nil || !ok {
		t.Fatalf("restored engine Replan = (%v, %v), want (true, nil)", ok, err)
	}
	// And the restored fleet answers like the original.
	for trial := 0; trial < 8; trial++ {
		q := geom.Pt(rng.Float64()*90, rng.Float64()*90)
		a, err := eng.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng2.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("q=%v restored answers diverged: %v vs %v", q, a, b)
		}
	}
}
