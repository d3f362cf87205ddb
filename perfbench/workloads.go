package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"unn"
)

// workload is one traffic mix: why it exists, its client model, its
// dataset and handle options, and the function that runs it.
type workload struct {
	why, clients, dataset string
	run                   func(*bench) error
}

var workloads = map[string]workload{
	"uniq": {
		why:     "no answer can be shared: shard pruning, the cross-shard merge and the kernel scan do all the work, and the cache probe is pure overhead (the bypass case for cache, dedup and tiling)",
		clients: "closed loop, 2 clients, one single query at a time each: NN≠0 50%, π 20%, E[d] 20%, top-5 10% exactly in every cycle of 10 (random order within it), at uniform unique points",
		dataset: "n=100k discrete points (3 locations, the same for every seed: the seed draws the traffic), OpenDiscrete with the default Auto backend, WithShards(8), WithAutoCache(4096)",
		run:     runUniq,
	},
	"hot": {
		why:     "the answer cache and in-batch dedup remove most kernel work, so it moves with the cache, dedup and tile executor and barely with kernel speed",
		clients: "closed loop, 1 client alternating BatchNonzero and BatchExpected of 128 queries: 80% Zipf(1.1) over 512 hot points, 20% uniform",
		dataset: "as uniq: n=100k, Auto, WithShards(8), WithAutoCache(4096)",
		run:     runHot,
	},
	"churn": {
		why:     "the serving path: writes invalidate the cache and rebuild shards under the write lock, Serve coalesces runs, and the mix flip shows how fast the adaptive loop replans",
		clients: fmt.Sprintf("open loop over Handle.Serve, %.0f ops/s at uniform random times (a Poisson process given its count), timed from each op's due time; one ordered writer: 2%% OpInsert, 2%% OpDelete, the same writes for every seed; queries half Zipf-hot, half uniform; mix NN≠0/π/E[d] 20/70/10 flips to 10/10/80 halfway", churnRate),
		dataset: "n=20k (the same for every seed), set up by OpenSnapshot of a snapshot of OpenDiscrete with WithShards(8), WithAdaptivePlanner(), WithInsertBuffer(0), WithAutoCache(4096), WithCalibration(perfbench/calibration.json)",
		run:     runChurn,
	},
}

// Seeded stream ids.
const (
	streamClients = 100
	streamHot     = 200
	streamChurn   = 300
	streamReplay  = 400
)

// checkEvery keeps one closed-loop request in this many for the oracle.
const checkEvery = 128

func openAuto(pts []*unn.Discrete) func() (*unn.Handle, error) {
	return func() (*unn.Handle, error) {
		return unn.OpenDiscrete(pts, unn.WithShards(shards), unn.WithAutoCache(cacheSize))
	}
}

// runUniq: single queries at unique uniform points from 2 clients.
func runUniq(b *bench) error {
	b.load(100_000)
	if err := b.openTimed(5, openAuto(b.pts)); err != nil {
		return err
	}
	mix := [numOps]float64{opNonzero: 0.5, opProbs: 0.2, opExpected: 0.2, opTopK: 0.1}
	b.closedLoop(2, func(c int) func(int, bool, *clientResult) {
		r := b.rng(streamClients + int64(c))
		var cycle []opKind
		return func(op int, traced bool, res *clientResult) {
			if len(cycle) == 0 {
				cycle = mixCycle(r, &mix)
			}
			k := cycle[0]
			cycle = cycle[1:]
			q := b.uniform(r)
			t0 := time.Now()
			ans, err := query(b.h, k, q)
			res.record(b.tr, k, "op."+opNames[k], op, traced, t0, time.Now(), q, 1)
			switch {
			case err != nil:
				res.failed++
			case op%checkEvery == 0:
				res.samples = append(res.samples, sample{k, q, ans})
			}
		}
	})
	b.checkSamples()
	return nil
}

// runHot: 128-query batches over a Zipf hot set from 1 client,
// alternating BatchNonzero and BatchExpected.
func runHot(b *bench) error {
	b.load(100_000)
	if err := b.openTimed(5, openAuto(b.pts)); err != nil {
		return err
	}
	r := b.rng(streamHot)
	hot := b.hotSet(r)
	zipf := rand.NewZipf(r, zipfS, 1, hotPoints-1)
	batch := func() []unn.Point {
		qs := make([]unn.Point, batchSize)
		for i := range qs {
			if r.Float64() < 0.8 {
				qs[i] = hot[zipf.Uint64()]
			} else {
				qs[i] = b.uniform(r)
			}
		}
		return qs
	}
	send := func(k opKind, qs []unn.Point) ([]answer, error) {
		out := make([]answer, len(qs))
		if k == opNonzero {
			res, err := b.h.BatchNonzero(qs)
			for i := range res {
				out[i].nonzero = res[i]
			}
			return out, err
		}
		res, err := b.h.BatchExpected(qs)
		for i := range res {
			out[i].exp = res[i]
		}
		return out, err
	}
	// Let the cache fill before timing: the hot workload measures a
	// server in its steady state.
	for i := 0; i < 32; i++ {
		if _, err := send([]opKind{opNonzero, opExpected}[i%2], batch()); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	b.closedLoop(1, func(int) func(int, bool, *clientResult) {
		return func(op int, traced bool, res *clientResult) {
			k := []opKind{opNonzero, opExpected}[op%2]
			qs := batch()
			t0 := time.Now()
			ans, err := send(k, qs)
			res.record(b.tr, k, "op.batch."+opNames[k], op, traced, t0, time.Now(), qs[0], len(qs))
			switch {
			case err != nil:
				res.failed++
			case op%checkEvery < 2:
				// 8 slots of both batches of one pair in checkEvery/2.
				for i := 0; i < len(qs); i += len(qs) / 8 {
					res.samples = append(res.samples, sample{k, qs[i], ans[i]})
				}
			}
		}
	})
	b.checkSamples()
	return nil
}

// Churn workload shape.
const (
	churnRate = 50.0 // offered ops per second
	// writeEvery ops hold one insert and one delete: 2% each.
	writeEvery = 50
	// spinWindow is how long before an op's due time the generator
	// stops sleeping and yield-spins, to send on time.
	spinWindow = 1500 * time.Microsecond
	// serveQueue is the request channel's capacity: the server's accept
	// queue, as deep as one coalesced Serve run (64 ops).
	serveQueue = 64
	// maxLateP99 is the generator lateness beyond which a run is invalid:
	// the schedule was not held, so the offered load was not the stated one.
	maxLateP99 = 20 * time.Millisecond
)

// runChurn: the open-loop Serve stream with writes and a mix flip.
func runChurn(b *bench) error {
	b.load(20_000)
	// Untimed preparation: build the fleet and write its snapshot.
	h0, err := unn.OpenDiscrete(b.pts, unn.WithShards(shards), unn.WithAdaptivePlanner(),
		unn.WithInsertBuffer(0), unn.WithAutoCache(cacheSize), unn.WithCalibration(b.cfg.calibration))
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	var snap bytes.Buffer
	if err := h0.Snapshot(&snap); err != nil {
		return fmt.Errorf("prepare: snapshot: %w", err)
	}
	h0 = nil
	if err := b.openTimed(5, func() (*unn.Handle, error) {
		return unn.OpenSnapshot(bytes.NewReader(snap.Bytes()))
	}); err != nil {
		return err
	}
	sched, final := b.churnSchedule()
	b.openLoop(sched)
	b.pts = final
	b.checkFinal(64)
	return nil
}
