package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"unn"
	"unn/internal/constructions"
)

// opKind is one kind of request a workload sends.
type opKind int

const (
	opNonzero opKind = iota
	opProbs
	opExpected
	opTopK
	opInsert
	opDelete
	numOps
)

var opNames = [numOps]string{"nonzero", "probs", "expected", "topk", "insert", "delete"}

// Workload shape shared by every workload.
const (
	locsPerPoint = 3
	sigma        = 2.0 // location scatter around each point's centre
	shards       = 8
	cacheSize    = 4096
	topK         = 5
	batchSize    = 128
	hotPoints    = 512
	zipfS        = 1.1
	// traceBlock is the number of consecutive ops that are traced (or
	// not) together in the traced run: alternating blocks give the
	// untraced baseline of trace.overhead_ratio from the same stream.
	traceBlock = 64
)

// answer is one query's payload, kept for the oracle check.
type answer struct {
	nonzero []int
	probs   []unn.Prob // π or top-k
	exp     unn.ExpectedResult
}

// sample is one answered query kept for the oracle check.
type sample struct {
	kind opKind
	q    unn.Point
	ans  answer
}

// root is a traced op whose input the layer replays repeat.
type root struct {
	span int
	q    unn.Point
}

// bench holds one workload run: its dataset, handle and measurements.
type bench struct {
	cfg  config
	side float64
	pts  []*unn.Discrete // the live dataset (churn: the final mirror)
	h    *unn.Handle

	setup     []float64                       // seconds per set-up
	lat       [numOps][]float64               // µs per request, by kind
	at        [numOps][]float64               // closed loop: s from the loop's start to each request's start
	answered  int                             // query answers and writes completed
	elapsed   float64                         // seconds the measured loop ran
	closed    bool                            // the loop was closed (uniq, hot), not open (churn)
	attempted int                             // requests sent
	failed    int                             // errors plus wrong answers
	samples   []sample                        // answers to check
	invalid   string                          // why the run must not be reported
	writes    int                             // mutations applied by the workload
	epoch0    uint64                          // handle epoch before the measured loop
	stats     unn.Stats                       // handle counters right after the measured loop
	tr        *tracer                         // nil in the untraced run
	untraced  []float64                       // traced run: µs of ops outside traced blocks
	roots     []root                          // traced run: traced ops for the replays
	layer     map[string]float64              // per-layer metrics
	loadgen   struct{ late, admit []float64 } // churn: generator lateness and admission waits, µs
	replanAt  float64                         // churn: s from the mix flip to the next replan
}

func newBench(cfg config) *bench {
	b := &bench{cfg: cfg, layer: map[string]float64{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	return b
}

// rng returns the seeded random stream with the given id: every input a
// workload draws comes from one of these, so a seed fixes the inputs.
func (b *bench) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(b.cfg.seed*1_000_003 + stream))
}

// scaled returns a dataset size scaled by cfg.scale.
func (b *bench) scaled(n int) int {
	return max(int(float64(n)*b.cfg.scale), 4*shards)
}

// dataset draws n discrete points with 3 locations each, spread so the
// mean centre spacing is 4σ (a few points per NN≠0 answer).
func dataset(r *rand.Rand, n int) ([]*unn.Discrete, float64) {
	side := 8 * math.Sqrt(float64(n))
	return constructions.RandomDiscrete(r, n, locsPerPoint, side, sigma, 1), side
}

// datasetSeed fixes every workload's dataset: the seed draws the traffic
// (query points, hot set, schedule, writes), not the index being served,
// whose shard geometry alone moves the hot figures by ±15% between
// datasets.
const datasetSeed = 0x756e6e

// load draws the workload's dataset of n points (scaled).
func (b *bench) load(n int) {
	b.pts, b.side = dataset(rand.New(rand.NewSource(datasetSeed)), b.scaled(n))
}

func (b *bench) uniform(r *rand.Rand) unn.Point {
	return unn.Pt(r.Float64()*b.side, r.Float64()*b.side)
}

// hotSet draws the hot query points of the hot and churn workloads.
func (b *bench) hotSet(r *rand.Rand) []unn.Point {
	hot := make([]unn.Point, hotPoints)
	for i := range hot {
		hot[i] = b.uniform(r)
	}
	return hot
}

// pickKind draws a request kind from mix (weights summing to 1).
func pickKind(r *rand.Rand, mix *[numOps]float64) opKind {
	u := r.Float64()
	for k, w := range mix {
		if u < w {
			return opKind(k)
		}
		u -= w
	}
	return opNonzero
}

// mixCycleLen is the number of requests in one cycle of a closed-loop mix.
const mixCycleLen = 10

// mixCycle returns one cycle of mixCycleLen kinds, each kind as often as
// its share of mix, in random order. Drawing kinds a cycle at a time keeps
// every stretch of a run at the stated mix, so throughput and the tail do
// not move with how many slow π and top-k queries a seed happens to draw.
func mixCycle(r *rand.Rand, mix *[numOps]float64) []opKind {
	var c []opKind
	for k, w := range mix {
		for range int(math.Round(w * mixCycleLen)) {
			c = append(c, opKind(k))
		}
	}
	r.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	return c
}

// query sends one single query of kind k through the handle.
func query(h *unn.Handle, k opKind, q unn.Point) (answer, error) {
	switch k {
	case opNonzero:
		r, err := h.QueryNonzero(q)
		return answer{nonzero: r}, err
	case opProbs:
		r, err := h.QueryProbs(q, 0)
		return answer{probs: r}, err
	case opExpected:
		i, d, err := h.QueryExpected(q)
		return answer{exp: unn.ExpectedResult{I: i, Dist: d}}, err
	case opTopK:
		r, err := h.QueryTopK(q, topK, 0)
		return answer{probs: r}, err
	}
	return answer{}, fmt.Errorf("query: %s is not a query kind", opNames[k])
}

// openTimed runs open n times, keeping every set-up time and the last
// handle. The earlier handles are dropped before the next set-up starts.
func (b *bench) openTimed(n int, open func() (*unn.Handle, error)) error {
	if b.cfg.trace {
		n = 1 // the traced run reports no set-up time
	}
	for i := 0; i < n; i++ {
		b.h = nil
		runtime.GC()
		t0 := time.Now()
		h, err := open()
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setup = append(b.setup, d.Seconds())
		b.h = h
	}
	b.epoch0 = b.h.Epoch()
	return nil
}

// clientResult is what one closed-loop client measured.
type clientResult struct {
	start     time.Time // the loop's start
	lat       [numOps][]float64
	at        [numOps][]float64
	answered  int
	attempted int
	failed    int
	samples   []sample
	untraced  []float64
	roots     []root
}

// record adds one completed request of kind k that answered n queries;
// in the traced run a request in a traced block also becomes a root span.
func (res *clientResult) record(tr *tracer, k opKind, name string, op int, traced bool, t0, t1 time.Time, q unn.Point, n int) {
	us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
	res.lat[k] = append(res.lat[k], us)
	res.at[k] = append(res.at[k], t0.Sub(res.start).Seconds())
	res.answered += n
	if tr == nil {
		return
	}
	if traced {
		res.roots = append(res.roots, root{span: tr.add(name, op, -1, t0, t1), q: q})
	} else {
		res.untraced = append(res.untraced, us)
	}
}

// closedLoop runs clients goroutines until the measured time is up. Each
// calls newClient once for its own state, then calls the returned step
// for op 0, 1, 2, …; a step sends one request and waits for its answer.
func (b *bench) closedLoop(clients int, newClient func(c int) func(op int, traced bool, res *clientResult)) {
	results := make([]clientResult, clients)
	steps := make([]func(int, bool, *clientResult), clients)
	for c := range steps {
		steps[c] = newClient(c)
	}
	runtime.GC()
	start := time.Now()
	deadline := start.Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.start = start
			for i := 0; time.Now().Before(deadline); i++ {
				res.attempted++
				steps[c](i*clients+c, b.tr != nil && (i/traceBlock)%2 == 1, res)
			}
		}(c)
	}
	wg.Wait()
	b.elapsed = time.Since(start).Seconds()
	b.closed = true
	b.stats = b.h.Stats()
	for i := range results {
		res := &results[i]
		for k := range res.lat {
			b.lat[k] = append(b.lat[k], res.lat[k]...)
			b.at[k] = append(b.at[k], res.at[k]...)
		}
		b.answered += res.answered
		b.attempted += res.attempted
		b.failed += res.failed
		b.samples = append(b.samples, res.samples...)
		b.untraced = append(b.untraced, res.untraced...)
		b.roots = append(b.roots, res.roots...)
	}
}

// checkSamples verifies the kept answers against the oracle over the
// live dataset; every wrong answer counts as a failed request.
func (b *bench) checkSamples() {
	o := newOracle(b.pts)
	for _, s := range b.samples {
		if err := o.check(s.kind, s.q, s.ans); err != nil {
			b.failed++
			warnf("wrong answer: %v", err)
		}
	}
}

// warnf reports a failed request on standard error.
func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// quantile is the nearest-rank p-quantile of xs (0 when empty).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Throughput blocks: a closed loop's requests are cut in start order into
// up to maxBlocks blocks of at least minBlock each.
const (
	maxBlocks = 60
	minBlock  = 32
)

// throughput is answers per second. On a VM whose vCPUs share cores with
// other tenants, a run's speed switches between a fast and a slow mode
// every few seconds (by 1.6× on a 2-vCPU cloud VM), in a share that
// differs from run to run, so the mean over a run moves with that share.
// A closed loop reports the slow decile of its block rates instead (a
// block's answers over the time from its first start to the next block's
// first start): that sits in the slow mode unless the fast mode held for
// nine tenths of the run, and a change to the program moves every block.
// An open loop answers at the offered rate while it keeps up; it reports
// the mean over the run.
func (b *bench) throughput() float64 {
	var starts []float64
	for k := range b.at {
		starts = append(starts, b.at[k]...)
	}
	nb := min(maxBlocks, len(starts)/minBlock)
	if !b.closed || nb < 3 {
		return float64(b.answered) / b.elapsed
	}
	slices.Sort(starts)
	perRequest := float64(b.answered) / float64(len(starts))
	rates := make([]float64, nb-1)
	for i := range rates {
		lo, hi := i*len(starts)/nb, (i+1)*len(starts)/nb
		rates[i] = float64(hi-lo) * perRequest / (starts[hi] - starts[lo])
	}
	return quantile(rates, 0.1)
}

// endToEnd computes the untraced run's metrics. The per-kind latencies
// are p10s, not medians: in the slow mode above, more than half of the
// cheap NN≠0 and E[d] requests of uniq slow by 1.6× for seconds to whole
// runs, which moved their median by 40% between runs, while their fastest
// tenth kept to the program's own cost within a few percent.
func (b *bench) endToEnd() map[string]float64 {
	var all []float64
	for k := range b.lat {
		all = append(all, b.lat[k]...)
	}
	return map[string]float64{
		"setup_s":         median(b.setup),
		"throughput_qps":  b.throughput(),
		"p99_us":          quantile(all, 0.99),
		"nonzero_p10_us":  quantile(b.lat[opNonzero], 0.1),
		"expected_p10_us": quantile(b.lat[opExpected], 0.1),
	}
}

// kindSummary is one row of the per-kind latency table.
type kindSummary struct {
	name          string
	count         int
	p10, p50, p99 float64
}

func (b *bench) kindSummaries() []kindSummary {
	var out []kindSummary
	for k, xs := range b.lat {
		if len(xs) > 0 {
			out = append(out, kindSummary{opNames[k], len(xs), quantile(xs, 0.1), quantile(xs, 0.5), quantile(xs, 0.99)})
		}
	}
	return out
}
