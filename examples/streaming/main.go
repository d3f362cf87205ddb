// Streaming: a fleet that never stops changing. Delivery vehicles join,
// leave, and re-register with fresh location distributions all day —
// the moving-uncertain-data setting that motivates probabilistic moving
// nearest-neighbor queries — so a static index would need a full
// rebuild on every change. The dynamic shard layer absorbs the churn
// instead: each mutation routes to its owning spatial shard, only that
// shard's backend rebuilds, and shards split or merge as the fleet
// grows and shrinks. The example drives a mixed mutation/query stream
// through Handle.Serve (OpInsert/OpDelete ride the same channel as
// queries), then compares the amortized mutation cost against a full
// rebuild.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"unn"
)

const side = 3000.0

func vehicle(rng *rand.Rand) *unn.Discrete {
	cx, cy := rng.Float64()*side, rng.Float64()*side
	locs := make([]unn.Point, 4)
	w := make([]float64, 4)
	for j := range locs {
		locs[j] = unn.Pt(cx+rng.NormFloat64()*25, cy+rng.NormFloat64()*25)
		w[j] = 0.5 + rng.Float64()
	}
	d, err := unn.NewDiscrete(locs, w)
	if err != nil {
		log.Fatal(err)
	}
	return d
}

func main() {
	rng := rand.New(rand.NewSource(0x57ea))

	// The morning fleet: 3000 vehicles behind 16 spatial shards, each
	// running the Theorem 3.2 two-stage NN≠0 structure; a mutation
	// rebuilds only its owning shard's.
	fleet := make([]*unn.Discrete, 3000)
	for i := range fleet {
		fleet[i] = vehicle(rng)
	}
	h, err := unn.OpenDiscrete(fleet,
		unn.WithBackend(unn.BackendTwoStageDiscrete),
		unn.WithShards(16), unn.WithCache(4096, side/256))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d vehicles, %d shards, mutable=%v\n", len(fleet), h.ShardCount(), h.Mutable())

	// A day of churn on the Serve stream: vehicles join (OpInsert) and
	// leave (OpDelete) between dispatch queries, all on one channel. The
	// dynamic layer serializes mutations against in-flight queries, so
	// every answer reflects a consistent fleet.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	requests := make(chan unn.Query)
	answers := h.Serve(ctx, requests)
	const churn = 600
	go func() {
		// In-flight ops may apply in any order across the worker pool, so
		// deletes draw below a floor that holds even if every sent delete
		// lands before any sent insert.
		floor := len(fleet)
		seq := uint64(0)
		for i := 0; i < churn; i++ {
			switch i % 3 {
			case 0: // a new vehicle comes online
				seq++
				requests <- unn.Query{Seq: seq, Kind: unn.OpInsert, Item: unn.Item{Point: vehicle(rng)}}
			case 1: // one drops off
				seq++
				floor--
				requests <- unn.Query{Seq: seq, Kind: unn.OpDelete, Del: rng.Intn(floor)}
			default: // dispatch keeps asking between mutations
				seq++
				requests <- unn.Query{Seq: seq, Kind: unn.CapNonzero,
					Q: unn.Pt(rng.Float64()*side, rng.Float64()*side)}
			}
		}
		close(requests)
	}()
	t0 := time.Now()
	mutations, queries, candidates := 0, 0, 0
	for a := range answers {
		if a.Err != nil {
			log.Fatal(a.Err)
		}
		switch a.Kind {
		case unn.OpInsert, unn.OpDelete:
			mutations++
		default:
			queries++
			candidates += len(a.Nonzero)
		}
	}
	fmt.Printf("served %d mutations + %d queries in %v; %.1f candidates per dispatch\n",
		mutations, queries, time.Since(t0), float64(candidates)/float64(queries))
	fmt.Printf("after churn: epoch %d, %d shards (splits/merges track the fleet)\n",
		h.Epoch(), h.ShardCount())

	// Why bother: amortized mutation cost vs rebuilding the whole index.
	t0 = time.Now()
	const direct = 200
	for i := 0; i < direct; i++ {
		if _, err := h.Insert(vehicle(rng)); err != nil {
			log.Fatal(err)
		}
	}
	perMutation := time.Since(t0) / direct
	t0 = time.Now()
	if _, err = unn.OpenDiscrete(fleet,
		unn.WithBackend(unn.BackendTwoStageDiscrete), unn.WithShards(16)); err != nil {
		log.Fatal(err)
	}
	rebuild := time.Since(t0)
	fmt.Printf("amortized insert %v vs full rebuild %v — %.0fx cheaper per mutation\n",
		perMutation, rebuild, float64(rebuild)/float64(perMutation))

	// Bursts coalesce further: a convoy of 64 vehicles registering at
	// once applies as ONE epoch — each touched shard rebuilds once for
	// the whole burst, not once per vehicle. (The Serve stream above
	// already does this opportunistically for queued mutation runs.)
	burst := make([]unn.Mutation, 64)
	for i := range burst {
		burst[i] = unn.InsertMutation(vehicle(rng))
	}
	t0 = time.Now()
	if _, err := h.BatchMutate(burst); err != nil {
		log.Fatal(err)
	}
	perBatched := time.Since(t0) / time.Duration(len(burst))
	fmt.Printf("64-insert convoy via BatchMutate: %v per mutation (singles above: %v)\n",
		perBatched, perMutation)

	// The evening shift: the dispatch workload itself changes — the day
	// was "who could be nearby" (NN≠0), the night runs "who do we expect
	// closest" (E[d]). An adaptive-planner handle watches its own
	// traffic: per-shard visit counters become shard temperatures, and
	// when the observed mix drifts from the plan it re-plans every shard
	// for what that shard actually serves, swapping the new backends in
	// without a restart.
	ah, err := unn.OpenDiscrete(fleet, unn.WithAdaptivePlanner(), unn.WithShards(8))
	if err != nil {
		log.Fatal(err)
	}
	// Downtown stays hot after dark: queries skew toward one corner, so
	// some shards run far warmer than others.
	for i := 0; i < 2500; i++ {
		q := unn.Pt(rng.Float64()*side/3, rng.Float64()*side/3)
		if i%8 == 0 {
			q = unn.Pt(rng.Float64()*side, rng.Float64()*side)
		}
		if _, _, err := ah.QueryExpected(q); err != nil {
			log.Fatal(err)
		}
	}
	st := ah.Stats()
	fmt.Printf("adaptive dispatch: %d replans", st.Replans)
	if st.LastReplanReason != "" {
		fmt.Printf(" (last: %s)", st.LastReplanReason)
	}
	fmt.Println()
	fmt.Print("shard temperatures (visits/window): ")
	for i, temp := range st.ShardTemps {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("%.0f", temp)
	}
	fmt.Println()
}
