package query

import (
	"container/heap"
	"context"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/kv"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// topK runs the best-first top-k similarity search of Algorithm 4: elements
// are expanded nearest-first (minDistEE), their surviving index spaces are
// queued by minDistIS, and each space is scanned only when no unexpanded
// element could still produce a nearer space. Every k-th result tightens the
// working threshold, which prunes the remaining frontier exactly like the
// threshold search's lemmas.
func (e *Engine) topK(ctx context.Context, q *traj.Trajectory, k int, w TimeWindow) ([]Result, *Stats, error) {
	qg := e.prepare(q)
	ix := e.store.Index()
	stats := &Stats{}

	// One snapshot for the whole best-first search: every HasValuesIn probe
	// and every space scan reads the same point-in-time view, so the
	// correctness argument (a space is scanned only when no unexpanded
	// element could beat it) holds against a stable ground truth even under
	// concurrent ingest.
	snap, err := e.store.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = snap.Close() }()

	results := &resultHeap{} // max-heap: worst of the current best k on top
	eps := math.Inf(1)
	epsOf := func() float64 {
		if results.Len() == k {
			return (*results)[0].Distance
		}
		return math.Inf(1)
	}

	// The resolution the query's own MBR indexes at; elements near it are
	// the most promising, so it breaks minDistEE ties.
	prefRes := ix.SEE(qg.xq.MBR).Len()

	eq := &elemHeap{}
	iq := &spaceHeap{}
	t0 := time.Now()
	for _, s := range xzstar.RootSeqs() {
		pushElem(eq, snap, ix, s, qg, prefRes)
	}
	stats.PruneTime += time.Since(t0)

	bounded := dist.BoundedFor(e.measure)

	// The kth-distance bound is shared across the whole query: the merge loop
	// tightens it after every insertion, workers read it for early-abandoning
	// prefilters, and the pushed-down server filter reads it live — so a scan
	// still streaming when a nearer result lands starts rejecting rows
	// server-side immediately. A stale (looser) read only costs a wasted full
	// computation or a shipped row; the exact comparison in the merge decides
	// membership, and rejections are backed by lower-bound proofs against a
	// bound no tighter than the final kth distance — so results are identical
	// for any interleaving (see stream.go).
	bound := newRefineBound(math.Inf(1))
	filter := pushDown(w, serverFilterLive(qg, e.measure, bound))

	scanSpace := func(sc spaceCand) error {
		stats.Ranges++
		bound.set(epsOf())
		scan := func(sctx context.Context, emit func([]kv.Entry) error) (*cluster.ScanResult, error) {
			return snap.ScanRangesStream(sctx,
				[]xzstar.ValueRange{{Lo: sc.value, Hi: sc.value + 1}},
				filter, 0, store.StreamOptions{Ordered: true}, emit)
		}
		// Ordered streaming: one index space spans one contiguous key range,
		// so region-sequential delivery equals key order: the merge below sees
		// candidates in the same order for any worker count or queue depth.
		return e.refineFromScan(ctx, stats, scan,
			func(rec *traj.Record) refineOutcome {
				b := bound.get()
				d := bounded(qg.points, rec.Points, b)
				return refineOutcome{rec: rec, dist: d, keep: d <= b}
			},
			func(o refineOutcome) error {
				if !o.keep {
					return nil
				}
				if results.Len() < k {
					heap.Push(results, Result{ID: o.rec.ID, Distance: o.dist, Points: o.rec.Points})
				} else if o.dist < (*results)[0].Distance {
					(*results)[0] = Result{ID: o.rec.ID, Distance: o.dist, Points: o.rec.Points}
					heap.Fix(results, 0)
				}
				bound.set(epsOf())
				return nil
			})
	}

	for eq.Len() > 0 || iq.Len() > 0 {
		eps = epsOf()

		// Drain index spaces that no unexpanded element can beat.
		for iq.Len() > 0 && (eq.Len() == 0 || (*iq)[0].dist <= (*eq)[0].dist) {
			sc := heap.Pop(iq).(spaceCand)
			if sc.dist > epsOf() {
				// Ordered queue: everything behind is farther. If elements
				// are also too far, the search is complete.
				iq = &spaceHeap{}
				break
			}
			if err := scanSpace(sc); err != nil {
				return nil, nil, err
			}
		}
		if eq.Len() == 0 {
			if iq.Len() == 0 {
				break
			}
			continue
		}

		t3 := time.Now()
		ec := heap.Pop(eq).(elemCand)
		eps = epsOf()
		if ec.dist > eps {
			// Nearest element exceeds the working threshold: nothing left
			// can improve the answer. Drain any still-eligible spaces.
			stats.PruneTime += time.Since(t3)
			for iq.Len() > 0 {
				sc := heap.Pop(iq).(spaceCand)
				if sc.dist > epsOf() {
					break
				}
				if err := scanSpace(sc); err != nil {
					return nil, nil, err
				}
			}
			break
		}

		// Queue this element's surviving index spaces (Lemmas 10-11 at the
		// current threshold).
		for _, sp := range ix.CandidateSpaces(ec.seq, qg.xq, eps) {
			if !snap.HasValuesIn(sp.Value, sp.Value+1) {
				continue
			}
			heap.Push(iq, spaceCand{value: sp.Value, dist: sp.Dist})
		}
		// Expand children (deeper resolutions), skipping empty subtrees.
		if ec.seq.Len() < ix.MaxResolution() {
			for d := byte(0); d < 4; d++ {
				pushElem(eq, snap, ix, ec.seq.Child(d), qg, prefRes)
			}
		}
		stats.PruneTime += time.Since(t3)
	}

	// Extract ascending by distance.
	out := make([]Result, results.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(results).(Result)
	}
	stats.Results = len(out)
	return out, stats, nil
}

// pushElem queues an element candidate unless its subtree is empty in the
// query's snapshot.
func pushElem(eq *elemHeap, snap *store.Snapshot, ix *xzstar.Index, s xzstar.Seq, qg *queryGeom, prefRes int) {
	pr := ix.PrefixRange(s)
	if !snap.HasValuesIn(pr.Lo, pr.Hi) {
		return
	}
	d := xzstar.MinDistEE(qg.xq.MBR, s.Element())
	tie := s.Len() - prefRes
	if tie < 0 {
		tie = -tie
	}
	heap.Push(eq, elemCand{seq: s, dist: d, tie: tie})
}

// elemCand is an enlarged element in the best-first frontier.
type elemCand struct {
	seq  xzstar.Seq
	dist float64 // minDistEE lower bound
	tie  int     // |resolution - preferred|: likelier elements first
}

type elemHeap []elemCand

func (h elemHeap) Len() int { return len(h) }
func (h elemHeap) Less(i, j int) bool {
	//lint:ignore floatcmp exact equality is the heap tie-break; an epsilon would break the ordering's transitivity
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].tie < h[j].tie
}
func (h elemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *elemHeap) Push(x any)   { *h = append(*h, x.(elemCand)) }
func (h *elemHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// spaceCand is an index space awaiting its scan.
type spaceCand struct {
	value int64
	dist  float64 // minDistIS lower bound
}

type spaceHeap []spaceCand

func (h spaceHeap) Len() int           { return len(h) }
func (h spaceHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h spaceHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *spaceHeap) Push(x any)        { *h = append(*h, x.(spaceCand)) }
func (h *spaceHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// resultHeap is a max-heap of results by distance (worst on top).
type resultHeap []Result

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return h[i].Distance > h[j].Distance }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
