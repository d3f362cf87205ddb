// The adaptive replanning loop: build-time planning made continuous.
//
// BuildPlanned (planner.go) picks a backend per query kind once, from a
// mix the caller guessed at build time. Real workloads drift, and the
// paper's structures have sharply different per-kind costs — a plan
// that was optimal for a π-heavy stream is badly wrong once the stream
// turns E[d]-heavy (the brute scan the planner kept for a 1% kind is
// suddenly 90% of traffic). The loop here closes that gap in four
// stages, threaded through the existing layers:
//
//		observe ──▶ detect ──▶ replan ──▶ swap
//		   ▲                                │
//		   └────────────────────────────────┘
//
//	  - Observe: every query path (single, batch, and Serve, which
//	    funnels through them) already records into the engine's per-kind
//	    latency counters and the per-shard visit counters. The controller
//	    windows both behind a countdown — one atomic add per query, zero
//	    allocations — and folds each window into EWMA profiles: global
//	    per-kind mean latency and mix share, per-shard per-kind visit
//	    rates (the shard's temperature).
//	  - Detect: detectDrift (cost.go) compares the smoothed profile
//	    against the installed plan — the mix against the plan's assumed
//	    mix (total-variation distance), the means against the reference
//	    means adopted when the plan was installed (estimate error).
//	  - Replan: planFor re-runs per shard with that shard's *own*
//	    observed mix, and with the build horizon scaled by the shard's
//	    share of the fleet's temperature — a hot shard amortizes over
//	    more queries, so it justifies expensive structures; a cold
//	    shard's horizon shrinks until the cheap-to-build oracle wins.
//	    That is the hot/cold tiering: it falls out of the cost model
//	    rather than a threshold rule. Builds run off the query path, on
//	    private sub-dataset snapshots (subset copies the id slices, and
//	    items are immutable, so concurrent mutations cannot tear them).
//	  - Swap: the install takes the fleet's write lock and re-checks the
//	    mutation epoch captured at snapshot time — the same fencing the
//	    dynamic layer's rebuilds rely on. A mutation that slipped in
//	    between snapshot and install aborts the swap (the next window
//	    retries); otherwise the new backends replace the old ones
//	    atomically, the epoch advances, and the engine closes a mutation
//	    epoch (cache flush) so no stale answers survive the plan change.
//
// Snapshots persist the shard temperatures, observed rates, and replan
// history (snapshot.go), so a restored handle resumes warm instead of
// re-learning the workload from scratch.
package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// AdaptiveOptions tunes the adaptive replanning loop
// (Options.AdaptiveReplan). The zero value selects every default.
type AdaptiveOptions struct {
	// Window is the number of queries per observation window: the
	// controller wakes at each window boundary to fold the counters into
	// the EWMA profiles and run drift detection. Default 512.
	Window int
	// Drift bounds how far the observed workload may wander from the
	// plan before a replan fires (see DriftThresholds).
	Drift DriftThresholds
	// Cooldown is the number of windows after a replan during which
	// drift detection stays silent, so the profiles re-settle around the
	// new plan before it can be judged. Default 2.
	Cooldown int
}

func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	if o.Window <= 0 {
		o.Window = 512
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 2
	}
	o.Drift = o.Drift.withDefaults()
	return o
}

// ewmaAlpha is the smoothing factor of every workload profile: each
// window moves the average halfway to the new observation, so a flipped
// mix dominates after two windows while a single odd window cannot
// trigger a replan by itself.
const ewmaAlpha = 0.5

// Horizon scaling bounds for the hot/cold tiering: a shard's effective
// planning horizon is the configured horizon times its share of the
// fleet temperature (×k, so a uniform fleet is unchanged), clamped to
// [minShardHorizon, maxHorizonScale × configured].
const (
	minShardHorizon = 16
	maxHorizonScale = 8
)

// adaptivePlanner is the loop's controller, owned by an Engine whose
// index is a planner-built sharded fleet.
type adaptivePlanner struct {
	e   *Engine
	sx  *ShardedIndex
	opt AdaptiveOptions

	// countdown is the hot-path state: queries decrement it, and the one
	// crossing zero runs the window tick inline (ticking is the reentry
	// guard). Everything the tick touches is preallocated, so the query
	// hot path stays allocation-free.
	countdown atomic.Int64
	ticking   atomic.Bool

	// replanMu serializes replans: the tick's fire-and-forget goroutine
	// and manual Replan calls. Ticks that find it held skip firing.
	replanMu sync.Mutex

	// mu guards the window state below.
	mu  sync.Mutex
	obs Observer
	// mean / mix are the smoothed global profile: per-kind EWMA query
	// latency (ns) and share of window traffic. ref is the reference
	// latency adopted at plan install (the empirical realization of the
	// plan's cost estimates — it absorbs the sharded merge constants the
	// per-backend estimates cannot see); planMix is the normalized mix
	// the installed plan was optimized for.
	mean    [numKinds]float64
	mix     [numKinds]float64
	ref     [numKinds]float64
	planMix [numKinds]float64
	// warm marks the profile seeded: the first window after install (or
	// after a replan) rebaselines ref instead of detecting drift.
	warm        bool
	cooldown    int
	replans     uint64
	lastReason  string
	staleSwaps  uint64 // installs aborted by the epoch fence
	manualTried bool   // a manual Replan ran at least once (Explain detail)
}

// newAdaptivePlanner wires the controller. planMix is seeded from the
// stored planner options (uniform over the supported kinds when the
// configured mix is zero, mirroring planFor).
func newAdaptivePlanner(e *Engine, sx *ShardedIndex, opt AdaptiveOptions) *adaptivePlanner {
	ap := &adaptivePlanner{e: e, sx: sx, opt: opt.withDefaults()}
	ap.countdown.Store(int64(ap.opt.Window))
	ap.setPlanMix(*sx.popt)
	return ap
}

// setPlanMix records the normalized mix of the installed plan (the
// detector's target). Caller holds ap.mu or has exclusive access.
func (ap *adaptivePlanner) setPlanMix(popt PlannerOptions) {
	caps := ap.sx.Capabilities()
	var w [numKinds]float64
	sum := 0.0
	for i := range kindTable {
		if !caps.Has(kindTable[i].cap) {
			continue
		}
		v := popt.Mix.weight(kindTable[i].cap)
		if popt.Mix.isZero() {
			v = 1
		}
		w[i] = v
		sum += v
	}
	if sum > 0 {
		for i := range w {
			w[i] /= sum
		}
	}
	ap.planMix = w
}

// noteQueries is the engine-side hook on every stats-recording site: one
// atomic add per call, and the call that crosses the window boundary
// runs the tick inline.
func (e *Engine) noteQueries(n int) {
	if ap := e.adapt; ap != nil {
		ap.note(n)
	}
}

func (ap *adaptivePlanner) note(n int) {
	if ap.countdown.Add(-int64(n)) > 0 {
		return
	}
	if !ap.ticking.CompareAndSwap(false, true) {
		return // another query is mid-tick; it will reset the countdown
	}
	ap.countdown.Store(int64(ap.opt.Window))
	ap.tick()
	ap.ticking.Store(false)
}

// tick closes one observation window: fold the latency counters and
// shard visit counters into the EWMA profiles, then run drift
// detection. The no-drift path allocates nothing; a firing tick spawns
// the replan goroutine and returns.
func (ap *adaptivePlanner) tick() {
	var cum [numKinds]KindStats
	for i := range cum {
		cum[i] = KindStats{Count: ap.e.stats.count[i].Load(), TotalNs: ap.e.stats.ns[i].Load()}
	}
	ap.mu.Lock()
	win := ap.obs.Window(cum)
	var total uint64
	for i := range win {
		total += win[i].Count
	}
	if total == 0 {
		ap.mu.Unlock()
		return
	}
	for i := range win {
		share := float64(win[i].Count) / float64(total)
		if ap.warm {
			ap.mix[i] += ewmaAlpha * (share - ap.mix[i])
		} else {
			ap.mix[i] = share
		}
		if win[i].Count > 0 {
			m := win[i].MeanNs()
			if ap.warm && ap.mean[i] > 0 {
				ap.mean[i] += ewmaAlpha * (m - ap.mean[i])
			} else {
				ap.mean[i] = m
			}
		}
	}
	if !ap.warm {
		ap.ref = ap.mean
		ap.warm = true
	}
	ap.updateShardRates()
	reason := ""
	if ap.cooldown > 0 {
		ap.cooldown--
	} else {
		reason = detectDrift(ap.mean, ap.mix, ap.ref, ap.planMix, ap.opt.Drift)
	}
	ap.mu.Unlock()
	if reason == "" {
		return
	}
	if !ap.replanMu.TryLock() {
		return // a replan is already in flight
	}
	go func() {
		defer ap.replanMu.Unlock()
		ap.replan(reason)
	}()
}

// updateShardRates folds each shard's visit delta since the previous
// window into its per-kind EWMA rate. Caller holds ap.mu; the shard
// list is read under the fleet's read lock, and the tick is the only
// writer of lastVisits/rates (ticking guard), so no further
// synchronization is needed.
func (ap *adaptivePlanner) updateShardRates() {
	sx := ap.sx
	sx.mu.RLock()
	for _, s := range sx.shards {
		for i := 0; i < numKinds; i++ {
			v := s.visits[i].Load()
			d := float64(v - s.lastVisits[i])
			s.lastVisits[i] = v
			if r := s.rate(i); r > 0 {
				s.setRate(i, r+ewmaAlpha*(d-r))
			} else if d > 0 {
				s.setRate(i, d)
			}
		}
	}
	sx.mu.RUnlock()
}

// shardWorkload reads one shard's observed mix off its EWMA rates (the
// zero Workload when the shard saw no traffic — callers fall back to
// the global mix).
func shardWorkload(s *shard) Workload {
	var w Workload
	for i := range kindTable {
		setWorkloadWeight(&w, kindTable[i].cap, s.rate(i))
	}
	return w
}

// observedWorkload is the global observed mix as planner weights.
// Caller holds ap.mu.
func (ap *adaptivePlanner) observedWorkload() Workload {
	var w Workload
	for i := range kindTable {
		setWorkloadWeight(&w, kindTable[i].cap, ap.mix[i])
	}
	return w
}

func setWorkloadWeight(w *Workload, kind Capability, v float64) {
	switch kind {
	case CapNonzero:
		w.Nonzero = v
	case CapProbs:
		w.Probs = v
	case CapTopK:
		w.TopK = v
	case CapExpected:
		w.Expected = v
	}
}

// Replan triggers one replan-and-swap synchronously — the manual
// counterpart of the automatic drift trigger, exposed as Handle.Replan.
// It reports whether a new plan was installed: false with a nil error
// means the epoch fence aborted the install (a mutation raced the
// build; retry after the stream settles) or the fleet has nothing to
// replan.
func (e *Engine) Replan() (bool, error) {
	ap := e.adapt
	if ap == nil {
		return false, fmt.Errorf("engine: Replan: adaptive replanning is not enabled (Options.AdaptiveReplan)")
	}
	ap.replanMu.Lock()
	defer ap.replanMu.Unlock()
	ap.mu.Lock()
	ap.manualTried = true
	ap.mu.Unlock()
	return ap.replan("manual replan")
}

// replan is the loop's build-and-swap stage. Caller holds replanMu.
//
// It snapshots the fleet under the read lock (shard pointers, their
// immutable sub-dataset snapshots, observed mixes, temperatures, and
// the mutation epoch), builds one freshly planned backend per shard off
// any lock, then installs them under the write lock iff the epoch is
// unchanged — the same fence the dynamic layer's rebuilds use, so
// in-flight queries only ever see the old fleet or the new one, never a
// torn mix of both.
func (ap *adaptivePlanner) replan(reason string) (bool, error) {
	sx := ap.sx

	type job struct {
		s    *shard
		sub  *Dataset
		mix  Workload
		temp float64
	}
	sx.mu.RLock()
	if sx.broken != nil {
		err := sx.broken
		sx.mu.RUnlock()
		return false, err
	}
	epoch0 := sx.epoch
	ds := sx.ds
	model := sx.model
	probed := sx.probed
	bopt := sx.bopt
	var popt PlannerOptions
	if sx.popt != nil {
		popt = *sx.popt
	}
	jobs := make([]job, 0, len(sx.shards))
	totalTemp := 0.0
	for _, s := range sx.shards {
		if s.ix == nil || len(s.ids) == 0 {
			continue
		}
		t := s.temp()
		totalTemp += t
		jobs = append(jobs, job{s: s, sub: s.sub, mix: shardWorkload(s), temp: t})
	}
	workers := sx.opt.BuildWorkers
	sx.mu.RUnlock()
	if len(jobs) == 0 || model == nil {
		return false, nil
	}

	ap.mu.Lock()
	gmix := ap.observedWorkload()
	ap.mu.Unlock()
	if !gmix.isZero() {
		popt.Mix = gmix
	}
	popt = popt.withDefaults()

	// Build the new per-shard backends off-lock, hot/cold tiered: each
	// shard plans with its own observed mix and a horizon proportional
	// to its temperature share.
	k := float64(len(jobs))
	built := make([]Index, len(jobs))
	var firstErr error
	var errMu sync.Mutex
	run := func(j int) {
		po := popt
		if !jobs[j].mix.isZero() {
			po.Mix = jobs[j].mix
		}
		if totalTemp > 0 {
			hor := po.Horizon * jobs[j].temp * k / totalTemp
			hor = math.Min(hor, po.Horizon*maxHorizonScale)
			hor = math.Max(hor, minShardHorizon)
			po.Horizon = hor
		}
		p := planFor(jobs[j].sub, model, po)
		p.Probed = probed
		px := &plannedIndex{plan: p, buildOpts: bopt}
		if err := px.Build(jobs[j].sub); err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			return
		}
		built[j] = px
	}
	if workers <= 1 || len(jobs) == 1 {
		for j := range jobs {
			run(j)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for j := range jobs {
			wg.Add(1)
			sem <- struct{}{}
			go func(j int) {
				defer wg.Done()
				run(j)
				<-sem
			}(j)
		}
		wg.Wait()
	}
	if firstErr != nil {
		return false, fmt.Errorf("engine: replan: %w", firstErr)
	}

	// Install under the write lock, epoch-fenced.
	sx.mu.Lock()
	if sx.broken != nil {
		err := sx.broken
		sx.mu.Unlock()
		return false, err
	}
	if sx.epoch != epoch0 {
		sx.mu.Unlock()
		ap.mu.Lock()
		ap.staleSwaps++
		ap.mu.Unlock()
		return false, nil
	}
	for j := range jobs {
		s := jobs[j].s
		old := s.ix
		s.ix = built[j]
		if ob, ok := old.(*bruteIndex); ok && ob.flat != nil {
			recycleShardFlat(ob.flat)
			ob.flat = nil
		}
	}
	// The dataset-level plan (Explain's header) under the new mix —
	// computed here, under the write lock, because sx.ds is mutated in
	// place by inserts and may not be read off-lock. The epoch fence just
	// guaranteed it is still the dataset the shard builds came from, and
	// planFor is cost-model arithmetic (no probe, no build), so the lock
	// hold stays short.
	dsPlan := planFor(ds, model, popt)
	dsPlan.Probed = probed
	sx.planNote = dsPlan.Explain()
	if sx.popt != nil {
		sx.popt.Mix = popt.Mix
	}
	// Future shard rebuilds (mutations) must plan with the new mix too:
	// replace the factory closure BuildPlanned installed, which captured
	// the build-time options.
	sx.factory = func(sub *Dataset) (Index, error) {
		p := planFor(sub, model, popt)
		p.Probed = probed
		px := &plannedIndex{plan: p, buildOpts: bopt}
		if err := px.Build(sub); err != nil {
			return nil, err
		}
		return px, nil
	}
	sx.recomputeCaps()
	sx.epoch++ // the swap is an epoch: readers that care re-snapshot
	sx.mu.Unlock()

	// Close the engine-side epoch exactly like a mutation: re-derive the
	// adaptive cache quantum, then flush the answer cache — a replanned
	// backend may answer π with a different (equally valid) approximation,
	// and stale entries must not outlive the plan that produced them.
	ap.e.afterMutation()

	ap.mu.Lock()
	ap.replans++
	ap.lastReason = reason
	ap.cooldown = ap.opt.Cooldown
	ap.warm = false // rebaseline ref on the next window
	ap.setPlanMix(popt)
	ap.mu.Unlock()
	return true, nil
}

// shardTemps snapshots the per-shard temperatures for Stats.
func (ap *adaptivePlanner) shardTemps() []float64 {
	return ap.sx.shardTemps()
}

// replanStats reports the replan count and last reason for Stats.
func (ap *adaptivePlanner) replanStats() (uint64, string) {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return ap.replans, ap.lastReason
}

// restoreState re-seeds the controller from a snapshot: replan history
// only — the latency windows rebuild within one window of traffic,
// while the shard rates (temperatures) ride the shards themselves.
func (ap *adaptivePlanner) restoreState(replans uint64, lastReason string) {
	ap.mu.Lock()
	ap.replans = replans
	ap.lastReason = lastReason
	ap.mu.Unlock()
}

// explain renders the loop's state, appended to Engine.Explain.
func (ap *adaptivePlanner) explain() string {
	ap.mu.Lock()
	replans, reason := ap.replans, ap.lastReason
	ap.mu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "adaptive: window %d queries, %d replans", ap.opt.Window, replans)
	if reason != "" {
		fmt.Fprintf(&sb, " (last: %s)", reason)
	}
	sb.WriteByte('\n')
	temps := ap.sx.shardTemps()
	hot, hotTemp := -1, 0.0
	for si, t := range temps {
		if t > hotTemp {
			hot, hotTemp = si, t
		}
	}
	if hot >= 0 {
		fmt.Fprintf(&sb, "  hottest shard %d at %.1f visits/window of %d shards\n", hot, hotTemp, len(temps))
	}
	return sb.String()
}
