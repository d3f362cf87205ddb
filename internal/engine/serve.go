package engine

import (
	"context"
	"fmt"
	"sync"

	"unn/internal/geom"
	"unn/internal/quantify"
)

// OpInsert and OpDelete are the Serve-stream mutation ops. They share
// Query.Kind's type so a stream interleaves queries and mutations
// through one channel, but they are ops, not capabilities: no backend
// reports them, and the engine routes them to the Mutable interface
// (ErrImmutable in Answer.Err for monolithic backends). Mutations are
// serialized against in-flight queries by the dynamic layer's RWMutex
// epoch — a query observes the index strictly before or strictly after
// any mutation, never mid-rebalance.
const (
	OpInsert Capability = 1 << 6
	OpDelete Capability = 1 << 7
)

// Query is one request on a Serve stream. Kind selects the query method
// (exactly one capability bit) or a mutation op; Seq is an opaque
// caller-assigned tag echoed in the Answer so out-of-order completions
// can be matched back to their requests.
type Query struct {
	Seq  uint64
	Kind Capability
	Q    geom.Point
	// Eps is the accuracy knob for CapProbs/CapTopK queries (≤ 0 selects
	// the backend's build-time default); ignored otherwise.
	Eps float64
	// K is the result size for CapTopK queries; ignored otherwise.
	K int
	// Item is the OpInsert payload; ignored otherwise.
	Item Item
	// Del is the global index removed by OpDelete; ignored otherwise.
	Del int
}

// Answer is one completed Serve query. Exactly one of the payload
// fields (by Kind) is meaningful; Err carries capability or backend
// errors without tearing down the stream. Mutation ops answer with N,
// the live item count right after the mutation applied (for OpInsert
// the inserted item's index was N−1 at that instant).
type Answer struct {
	Seq      uint64
	Kind     Capability
	Nonzero  []int
	Probs    []quantify.Prob
	TopK     []quantify.Prob
	Expected ExpectedResult
	N        int
	Err      error
}

// Serve answers a stream of queries asynchronously: a pool of
// opt.Workers workers drains in, and completions arrive on the returned
// channel as they finish — out of order under load, tagged by Seq. The
// answer channel's capacity (Options.ServeBuffer, default 2×Workers)
// provides backpressure: when the consumer lags, workers block on the
// full channel and, transitively, stop draining in.
//
// The stream ends (the answer channel closes) when in is closed and all
// accepted queries have completed, or when ctx is cancelled — workers
// drop pending sends on cancellation, so cancellation never deadlocks
// even with a full answer channel and an abandoned consumer. Per-query
// failures (e.g. an unsupported kind) are reported in Answer.Err;
// they do not stop the stream.
// Runs of queued mutation ops are opportunistically coalesced: a worker
// that picks up an OpInsert/OpDelete greedily drains any immediately
// available mutation ops behind it (never blocking on the channel) and
// applies the run as one BatchMutate — one write lock, one rebuild per
// touched shard, one cache flush — while still emitting one Answer per
// op with the exact sequential semantics. A query encountered mid-drain
// ends the run and is answered right after it.
// Runs of queued same-kind NN≠0 or E[d] queries coalesce symmetrically
// (mirroring the mutation coalescing): the run becomes one Batch* call
// — in-batch dedup, one cache probe per distinct query — while still
// emitting one Answer per query; answers are identical to the
// uncoalesced path's.
//
// Served traffic is observed like any other: both the single-query and
// the coalesced batch paths record into the engine's per-kind latency
// counters and per-shard visit counters, so a stream served through
// Serve drives the adaptive replanning loop (Options.AdaptiveReplan)
// exactly as direct Query*/Batch* calls do.
func (e *Engine) Serve(ctx context.Context, in <-chan Query) <-chan Answer {
	buf := e.opt.ServeBuffer
	if buf <= 0 {
		buf = 2 * e.opt.Workers
	}
	out := make(chan Answer, buf)
	_, canBatch := e.ix.(BatchMutable)
	var wg sync.WaitGroup
	for w := 0; w < e.opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			send := func(a Answer) bool {
				select {
				case out <- a:
					return true
				case <-ctx.Done():
					return false
				}
			}
			for {
				select {
				case <-ctx.Done():
					return
				case qr, ok := <-in:
					if !ok {
						return
					}
					if canBatch && isMutOp(qr.Kind) {
						ops, leftover, closed := drainMutations(in, qr)
						for _, a := range e.answerMutations(ops) {
							if !send(a) {
								return
							}
						}
						if leftover != nil && !send(e.answer(*leftover)) {
							return
						}
						if closed {
							return
						}
						continue
					}
					if isCoalescedQuery(qr.Kind) {
						run, leftover, closed := drainQueries(in, qr)
						if len(run) > 1 {
							for _, a := range e.answerQueryRun(run) {
								if !send(a) {
									return
								}
							}
						} else if !send(e.answer(qr)) {
							return
						}
						if leftover != nil && !send(e.answer(*leftover)) {
							return
						}
						if closed {
							return
						}
						continue
					}
					if !send(e.answer(qr)) {
						return
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// serveCoalesce caps one coalesced mutation run — large enough to
// amortize the per-epoch costs, small enough that the write lock never
// starves readers for a whole backlog.
const serveCoalesce = 64

// isMutOp reports whether kind is a Serve-stream mutation op.
func isMutOp(kind Capability) bool { return kind == OpInsert || kind == OpDelete }

// drainMutations greedily extends the run started by first with
// mutation ops already queued on in, without ever blocking: the first
// non-mutation query ends the run (returned as leftover), as does an
// empty channel or its closure (closed).
func drainMutations(in <-chan Query, first Query) (ops []Query, leftover *Query, closed bool) {
	ops = []Query{first}
	for len(ops) < serveCoalesce {
		select {
		case qr, ok := <-in:
			if !ok {
				return ops, nil, true
			}
			if isMutOp(qr.Kind) {
				ops = append(ops, qr)
				continue
			}
			return ops, &qr, false
		default:
			return ops, nil, false
		}
	}
	return ops, nil, false
}

// isCoalescedQuery reports whether kind is a registered query kind
// whose runs Serve answers as one batch (the Serve-loop coalescing
// predicate).
func isCoalescedQuery(kind Capability) bool {
	spec := kindByCap(kind)
	return spec != nil && spec.coalesce
}

// drainQueries greedily extends the run started by first with
// immediately available queries of the same kind, without ever
// blocking: the first differently-kinded request ends the run (returned
// as leftover — possibly a mutation op), as does an empty channel or
// its closure (closed). The coalesced kinds ignore Eps/K, so matching
// on Kind alone preserves per-query semantics.
func drainQueries(in <-chan Query, first Query) (run []Query, leftover *Query, closed bool) {
	run = []Query{first}
	for len(run) < serveCoalesce {
		select {
		case qr, ok := <-in:
			if !ok {
				return run, nil, true
			}
			if qr.Kind == first.Kind {
				run = append(run, qr)
				continue
			}
			return run, &qr, false
		default:
			return run, nil, false
		}
	}
	return run, nil, false
}

// answerQueryRun answers one coalesced query run through the batch
// entry point (in-batch dedup, one cache probe per distinct query).
// A batch error falls back to per-query answers so each query reports
// its own error, exactly the uncoalesced semantics.
func (e *Engine) answerQueryRun(run []Query) []Answer {
	pts := make([]geom.Point, len(run))
	for i, qr := range run {
		pts[i] = qr.Q
	}
	as := make([]Answer, len(run))
	switch run[0].Kind {
	case CapNonzero:
		res, err := e.BatchNonzero(pts)
		if err != nil {
			break
		}
		for i, qr := range run {
			as[i] = Answer{Seq: qr.Seq, Kind: qr.Kind, Nonzero: res[i]}
		}
		return as
	case CapExpected:
		res, err := e.BatchExpected(pts)
		if err != nil {
			break
		}
		for i, qr := range run {
			as[i] = Answer{Seq: qr.Seq, Kind: qr.Kind, Expected: res[i]}
		}
		return as
	}
	for i, qr := range run {
		as[i] = e.answer(qr)
	}
	return as
}

// answerMutations applies one coalesced run. The batch path validates
// atomically, so on a batch error (one bad op rejects the burst, or a
// poisoned index) the run falls back to per-op application — each op
// then reports its own error, exactly the uncoalesced semantics.
func (e *Engine) answerMutations(ops []Query) []Answer {
	if len(ops) > 1 {
		ms := make([]Mutation, len(ops))
		for i, op := range ops {
			if op.Kind == OpInsert {
				ms[i] = InsertMutation(op.Item)
			} else {
				ms[i] = DeleteMutation(op.Del)
			}
		}
		if res, err := e.BatchMutate(ms); err == nil {
			as := make([]Answer, len(ops))
			for i, op := range ops {
				a := Answer{Seq: op.Seq, Kind: op.Kind, N: res[i]}
				if op.Kind == OpInsert {
					a.N = res[i] + 1 // res is the inserted index; N is the live count
				}
				as[i] = a
			}
			return as
		}
	}
	as := make([]Answer, len(ops))
	for i, op := range ops {
		as[i] = e.answer(op)
	}
	return as
}

// answer executes one stream query through the cached single-query
// path — so Serve traffic feeds the same per-query-kind latency
// counters (Engine.Stats) that calibrate the planner's cost model — or
// applies a mutation op through the dynamic layer.
func (e *Engine) answer(qr Query) Answer {
	a := Answer{Seq: qr.Seq, Kind: qr.Kind}
	switch qr.Kind {
	case OpInsert:
		var gi int
		if gi, a.Err = e.Insert(qr.Item); a.Err == nil {
			a.N = gi + 1
		}
	case OpDelete:
		a.N, a.Err = e.deleteN(qr.Del)
	default:
		if kindByCap(qr.Kind) == nil {
			a.Err = fmt.Errorf("engine: serve: query kind %v is not a single capability or mutation op", qr.Kind)
			return a
		}
		res, err := e.Query(Request{Kind: qr.Kind, Q: qr.Q, Eps: qr.Eps, K: qr.K})
		a.Err = err
		if err != nil {
			if qr.Kind == CapExpected {
				a.Expected.I = -1
			}
			return a
		}
		a.Nonzero, a.Probs, a.TopK, a.Expected = res.Nonzero, res.Probs, res.TopK, res.Expected
	}
	return a
}
