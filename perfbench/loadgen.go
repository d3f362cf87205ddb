package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"unn"
	"unn/internal/constructions"
)

// schedOp is one op of the churn schedule, due at a fixed offset from
// the start of the run.
type schedOp struct {
	due  time.Duration
	kind opKind
	q    unn.Point
	item *unn.Discrete // opInsert
	del  int           // opDelete
}

func (op schedOp) write() bool { return op.kind == opInsert || op.kind == opDelete }

// churnSchedule draws the arrival schedule for cfg.seconds and
// returns it with the dataset the writes leave behind (dense-index
// deletes, inserts appended, applied in schedule order).
func (b *bench) churnSchedule() ([]schedOp, []*unn.Discrete) {
	r := b.rng(streamChurn)
	// The writes, like the dataset, are the same for every seed: which
	// shard a delete rebuilds sets most of the latency tail, and the seed
	// should move the tail only through the arrival times.
	wr := rand.New(rand.NewSource(datasetSeed + streamChurn))
	hot := b.hotSet(r)
	zipf := rand.NewZipf(r, zipfS, 1, hotPoints-1)
	before := [numOps]float64{opNonzero: 0.2, opProbs: 0.7, opExpected: 0.1}
	after := [numOps]float64{opNonzero: 0.1, opProbs: 0.1, opExpected: 0.8}
	live := slices.Clone(b.pts)
	// A Poisson process conditioned on its count: exactly rate×seconds
	// arrivals at uniform random times, so every run offers the same load.
	due := make([]float64, int(churnRate*b.cfg.seconds))
	for i := range due {
		due[i] = r.Float64() * b.cfg.seconds
	}
	slices.Sort(due)
	ops := make([]schedOp, 0, len(due))
	for _, t := range due {
		op := schedOp{due: time.Duration(t * float64(time.Second))}
		// Writes sit at fixed positions (one insert and one delete in
		// every writeEvery ops), so every run holds the same share of
		// them and only the arrival times are random.
		switch len(ops) % writeEvery {
		case writeEvery / 4:
			op.kind = opInsert
			op.item = constructions.RandomDiscrete(wr, 1, locsPerPoint, b.side, sigma, 1)[0]
			live = append(live, op.item)
		case 3 * writeEvery / 4:
			op.kind = opDelete
			op.del = wr.Intn(len(live))
			live = slices.Delete(live, op.del, op.del+1)
		default:
			mix := &before
			if t >= b.cfg.seconds/2 {
				mix = &after
			}
			op.kind = pickKind(r, mix)
			if r.Float64() < 0.5 {
				op.q = hot[zipf.Uint64()]
			} else {
				op.q = b.uniform(r)
			}
		}
		ops = append(ops, op)
	}
	return ops, live
}

var kindCap = [numOps]unn.Capability{
	opNonzero:  unn.QueryKindNonzero,
	opProbs:    unn.QueryKindProbs,
	opExpected: unn.QueryKindExpected,
	opTopK:     unn.QueryKindTopK,
	opInsert:   unn.OpInsert,
	opDelete:   unn.OpDelete,
}

// openLoop sends the schedule through Handle.Serve, each op at its due
// time whether or not earlier ops have been answered, and times every
// op from its due time. Writes come from one ordered writer: a write is
// sent once the previous write is answered (and is timed from its own
// due time all the same), so the handle applies them in schedule order.
func (b *bench) openLoop(sched []schedOp) {
	in := make(chan unn.Query, serveQueue)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := b.h.Serve(ctx, in)
	acked := make(chan struct{}, 1) // one write in flight at a time
	collected := make(chan struct{})
	start := time.Now()
	var lastDone time.Time

	go func() {
		defer close(collected)
		for a := range out {
			t1 := time.Now()
			op := sched[a.Seq]
			due := start.Add(op.due)
			us := float64(t1.Sub(due).Nanoseconds()) / 1e3
			b.lat[op.kind] = append(b.lat[op.kind], us)
			b.answered++
			lastDone = t1
			if a.Err != nil {
				b.failed++
				warnf("serve: op %d (%s): %v", a.Seq, opNames[op.kind], a.Err)
			}
			if op.write() {
				b.writes++
				acked <- struct{}{}
			}
			if b.tr == nil {
				continue
			}
			if (a.Seq/traceBlock)%2 == 1 {
				id := b.tr.add("op.serve."+opNames[op.kind], int(a.Seq), -1, due, t1)
				if !op.write() {
					b.roots = append(b.roots, root{span: id, q: op.q})
				}
			} else {
				b.untraced = append(b.untraced, us)
			}
		}
	}()
	stopWatch := b.watchReplan(start)

	send := func(i int) {
		op := sched[i]
		q := unn.Query{Seq: uint64(i), Kind: kindCap[op.kind], Q: op.q, K: topK, Del: op.del}
		if op.item != nil {
			q.Item = unn.Item{Point: op.item}
		}
		t0 := time.Now()
		in <- q
		b.loadgen.admit = append(b.loadgen.admit, float64(time.Since(t0).Nanoseconds())/1e3)
		b.attempted++
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var pending []int // writes waiting for the previous write's answer
	writing := false
	lastSent := start
	for next := 0; next < len(sched) || len(pending) > 0; {
		var wake <-chan time.Time
		if next < len(sched) {
			due := start.Add(sched[next].due)
			if wait := time.Until(due); wait > spinWindow {
				// Timers wake up to a millisecond late: sleep to just
				// before the due time and yield-spin the rest.
				timer.Reset(wait - spinWindow)
				wake = timer.C
			} else if wait > 0 {
				runtime.Gosched()
				continue
			} else {
				// Lateness is the generator's own: time past the due time
				// not spent blocked on the previous send.
				late := time.Since(due)
				if lastSent.After(due) {
					late = time.Since(lastSent)
				}
				b.loadgen.late = append(b.loadgen.late, float64(late.Nanoseconds())/1e3)
				switch {
				case !sched[next].write():
					send(next)
				case writing:
					pending = append(pending, next)
				default:
					writing = true
					send(next)
				}
				lastSent = time.Now()
				next++
				continue
			}
		}
		select {
		case <-wake:
		case <-acked:
			writing = false
			if len(pending) > 0 {
				writing = true
				send(pending[0])
				pending = pending[1:]
			}
		}
	}
	close(in)
	<-collected
	stopWatch()
	b.elapsed = lastDone.Sub(start).Seconds()
	b.stats = b.h.Stats()
	if late := quantile(b.loadgen.late, 0.99); late > float64(maxLateP99.Microseconds()) {
		b.invalid = fmt.Sprintf("generator fell behind: lateness p99 %.0f µs > %v", late, maxLateP99)
	}
}

// watchReplan (traced run only) polls Stats from the mix flip on and
// records in b.replanAt how long the adaptive loop took to complete its
// next replan; without one it records the time to the end of the run, a
// lower bound. The returned function stops the watcher and waits for it.
func (b *bench) watchReplan(start time.Time) func() {
	if b.tr == nil {
		return func() {}
	}
	flip := start.Add(time.Duration(b.cfg.seconds / 2 * float64(time.Second)))
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var base uint64
		flipped := false
		for {
			select {
			case <-stop:
				if flipped {
					b.replanAt = time.Since(flip).Seconds()
				}
				return
			case now := <-tick.C:
				if !flipped {
					if now.Before(flip) {
						continue
					}
					flipped, base = true, b.h.Stats().Replans
					continue
				}
				if b.h.Stats().Replans > base {
					b.replanAt = now.Sub(flip).Seconds()
					return
				}
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// checkFinal compares the handle's final state with the mirror of the
// live set at probes uniform points, every query kind.
func (b *bench) checkFinal(probes int) {
	o := newOracle(b.pts)
	if l, ok := b.h.Index().(interface{ Len() int }); ok && l.Len() != len(b.pts) {
		b.failed++
		warnf("final state: handle holds %d points, mirror %d", l.Len(), len(b.pts))
		return
	}
	r := b.rng(streamReplay)
	for i := 0; i < probes; i++ {
		q := b.uniform(r)
		for k := opNonzero; k <= opTopK; k++ {
			b.attempted++
			ans, err := query(b.h, k, q)
			if err == nil {
				err = o.check(k, q, ans)
			}
			if err != nil {
				b.failed++
				warnf("final state: %v", err)
			}
		}
	}
}
