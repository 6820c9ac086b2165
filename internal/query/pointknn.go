package query

import (
	"container/heap"
	"context"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// nearestToPoint finds the k stored trajectories whose closest approach to
// point p is smallest — "which routes pass nearest this depot". It is the
// point-query member of the family the paper's conclusion leaves as future
// work, and it reuses the Algorithm-4 best-first machinery with a different
// (still sound) lower bound: every point of a trajectory lies inside its
// index space's occupied quads, so the distance from p to that quad union
// lower-bounds the trajectory's closest approach.
func (e *Engine) nearestToPoint(ctx context.Context, p geo.Point, k int) ([]Result, *Stats, error) {
	stats := &Stats{}
	ix := e.store.Index()

	// One snapshot for the whole best-first search (see topK).
	snap, err := e.store.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = snap.Close() }()

	results := &resultHeap{}
	epsOf := func() float64 {
		if results.Len() == k {
			return (*results)[0].Distance
		}
		return math.Inf(1)
	}

	eq := &elemHeap{}
	iq := &spaceHeap{}
	t0 := time.Now()
	for _, s := range xzstar.RootSeqs() {
		pushElemPoint(eq, snap, ix, s, p)
	}
	stats.PruneTime += time.Since(t0)

	// closestApproach's feature-box shortcut reads the shared kth bound:
	// a stale (looser) value just means a shortcut missed. The value it
	// returns under the shortcut is a lower bound that already exceeds
	// the merge-time kth distance, so the exact comparison in the merge
	// makes the same decision the sequential path made. The bound spans the
	// whole query (tightened after every insertion), so spaces scanned later
	// start with the sharpest shortcut available.
	bound := newRefineBound(math.Inf(1))

	scanSpace := func(sc spaceCand) error {
		stats.Ranges++
		bound.set(epsOf())
		scan := func(sctx context.Context, emit func([]kv.Entry) error) (*cluster.ScanResult, error) {
			return snap.ScanRangesStream(sctx,
				[]xzstar.ValueRange{{Lo: sc.value, Hi: sc.value + 1}},
				nil, 0, store.StreamOptions{Ordered: true}, emit)
		}
		// Ordered streaming keeps dispatch order equal to key order; see
		// topk.go.
		return e.refineFromScan(ctx, stats, scan,
			func(rec *traj.Record) refineOutcome {
				d := closestApproach(p, rec.Points, rec.Features.Boxes, bound.get())
				return refineOutcome{rec: rec, dist: d, keep: true}
			},
			func(o refineOutcome) error {
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
		for iq.Len() > 0 && (eq.Len() == 0 || (*iq)[0].dist <= (*eq)[0].dist) {
			sc := heap.Pop(iq).(spaceCand)
			if sc.dist > epsOf() {
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
		if ec.dist > epsOf() {
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
		quads := ec.seq.Quads()
		atMax := ec.seq.Len() == ix.MaxResolution()
		for _, code := range xzstar.AllCodes(atMax) {
			v := ix.Value(ec.seq, code)
			if !snap.HasValuesIn(v, v+1) {
				continue
			}
			d := distPointMask(p, &quads, code.Mask())
			if d > epsOf() {
				continue
			}
			heap.Push(iq, spaceCand{value: v, dist: d})
		}
		if ec.seq.Len() < ix.MaxResolution() {
			for d := byte(0); d < 4; d++ {
				pushElemPoint(eq, snap, ix, ec.seq.Child(d), p)
			}
		}
		stats.PruneTime += time.Since(t3)
	}

	out := make([]Result, results.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(results).(Result)
	}
	stats.Results = len(out)
	return out, stats, nil
}

// pushElemPoint queues an element by its point-distance lower bound, unless
// its subtree is empty in the query's snapshot.
func pushElemPoint(eq *elemHeap, snap *store.Snapshot, ix *xzstar.Index, s xzstar.Seq, p geo.Point) {
	pr := ix.PrefixRange(s)
	if !snap.HasValuesIn(pr.Lo, pr.Hi) {
		return
	}
	heap.Push(eq, elemCand{seq: s, dist: geo.DistPointRect(p, s.Element())})
}

// distPointMask is the minimum distance from p to the union of the selected
// quads.
func distPointMask(p geo.Point, quads *[4]geo.Rect, mask xzstar.QuadMask) float64 {
	best := math.Inf(1)
	for i := 0; i < 4; i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		if d := geo.DistPointRect(p, quads[i]); d < best {
			best = d
			//lint:ignore floatcmp exact zero is a sound early exit for a nonnegative distance; a missed ulp only skips the shortcut
			if best == 0 {
				break
			}
		}
	}
	return best
}

// closestApproach is the exact minimum distance from p to the trajectory's
// points, with a feature-box prefilter that abandons once the boxes prove
// the trajectory cannot beat bound.
func closestApproach(p geo.Point, pts []geo.Point, boxes []geo.Rect, bound float64) float64 {
	if len(boxes) > 0 && !math.IsInf(bound, 1) {
		lb := math.Inf(1)
		for _, b := range boxes {
			if d := geo.DistPointRect(p, b); d < lb {
				lb = d
			}
		}
		if lb >= bound {
			return lb // cannot enter the top-k; exact value is irrelevant
		}
	}
	best := math.Inf(1)
	for _, q := range pts {
		if d := p.Dist(q); d < best {
			best = d
			//lint:ignore floatcmp exact zero is a sound early exit for a nonnegative distance; a missed ulp only skips the shortcut
			if best == 0 {
				break
			}
		}
	}
	return best
}
