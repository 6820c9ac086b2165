package query

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/traj"
)

// Local filtering (Section V-D, Algorithm 2). Each check is a sound
// necessary condition for f(Q,T) <= eps; any failure proves dissimilarity.
// Checks run cheapest-first, as the paper prescribes. Every check reads the
// stored row through a traj.RowView, so a rejected row is never decoded.

// filterScratch is the stack capacity for one row's decoded feature boxes
// and representative points. Stored rows carry a handful of each, so a
// filter allocates only for the rare row that carries more.
const filterScratch = 32

// localFilter evaluates Lemmas 12-14 for a stored row against the query.
// It returns false when the row provably cannot be within eps.
func localFilter(qg *queryGeom, measure dist.Measure, v *traj.RowView, eps float64) bool {
	qpts := qg.points
	if v.Len() == 0 {
		return false
	}
	if math.IsInf(eps, 1) {
		// Top-k warm-up: no threshold yet, nothing can be filtered.
		return true
	}

	// Lemma 12: endpoints must match within eps (Fréchet and DTW only).
	if dist.SupportsEndpointLemma(measure) {
		if qpts[0].Dist(v.First()) > eps {
			return false
		}
		if qpts[len(qpts)-1].Dist(v.Last()) > eps {
			return false
		}
	}

	var boxBuf [filterScratch]geo.Rect
	boxes := v.AppendBoxes(boxBuf[:0])
	// Only a single-point row has no boxes; its raw points stand in for them.
	var tpts []geo.Point
	var ptBuf [filterScratch]geo.Point
	if len(boxes) == 0 {
		tpts = v.AppendPoints(ptBuf[:0])
	}

	// Lemma 13, query side: every representative point of Q must be within
	// eps of T's feature boxes (which cover all of T).
	if !pointsNearBoxes(qg.rep, boxes, tpts, eps) {
		return false
	}
	// Lemma 13, data side: every representative point of T within eps of
	// Q's boxes.
	var repBuf [filterScratch]geo.Point
	if !pointsNearBoxes(v.AppendRepPoints(repBuf[:0]), qg.features.Boxes, qpts, eps) {
		return false
	}

	// Lemma 14, both sides: every feature box's guaranteed point (one per
	// edge) must reach the other side's boxes within eps.
	if !boxesNearBoxes(qg.features.Boxes, boxes, tpts, eps) {
		return false
	}
	if !boxesNearBoxes(boxes, qg.features.Boxes, qpts, eps) {
		return false
	}
	return true
}

// pointsNearBoxes checks that every point in pts is within eps of the union
// of boxes. When the other trajectory has no boxes (a single-point
// trajectory), it falls back to its raw points.
func pointsNearBoxes(pts []geo.Point, boxes []geo.Rect, fallback []geo.Point, eps float64) bool {
	if len(boxes) == 0 {
		for _, p := range pts {
			if distToPoints(p, fallback) > eps {
				return false
			}
		}
		return true
	}
	for _, p := range pts {
		if traj.DistPointBoxes(p, boxes) > eps {
			return false
		}
	}
	return true
}

// boxesNearBoxes applies Lemma 14: for each box of a, the farthest of its
// four edges' minimum distances to b's boxes must be <= eps (every edge of an
// MBR touches at least one real point).
func boxesNearBoxes(a, b []geo.Rect, bFallback []geo.Point, eps float64) bool {
	for _, box := range a {
		worst := 0.0
		for _, edge := range box.Edges() {
			var d float64
			if len(b) == 0 {
				d = distSegToPoints(geo.Segment(edge), bFallback)
			} else {
				d = traj.DistSegmentBoxes(geo.Segment(edge), b)
			}
			if d > worst {
				worst = d
			}
		}
		if worst > eps {
			return false
		}
	}
	return true
}

func distToPoints(p geo.Point, pts []geo.Point) float64 {
	best := math.Inf(1)
	for _, q := range pts {
		if d := p.Dist(q); d < best {
			best = d
		}
	}
	return best
}

func distSegToPoints(s geo.Segment, pts []geo.Point) float64 {
	best := math.Inf(1)
	for _, q := range pts {
		if d := geo.DistPointSegment(q, s); d < best {
			best = d
		}
	}
	return best
}

// rowFilter is a push-down predicate over a validated row. It takes the
// view by value: the storage layer calls filters through a func value, and
// a pointer passed that way would move every row's view to the heap.
type rowFilter func(v traj.RowView) bool

// pushDown composes the storage filter from a time window and a row filter.
// It validates each row once through a traj.RowView, then runs the time
// check and f. A row the view cannot read ships, so that the client-side
// decode reports the corruption rather than the scan dropping the row. With
// no filter and an unbounded window there is nothing to push down.
func pushDown(w TimeWindow, f rowFilter) cluster.Filter {
	if f == nil && w.Unbounded() {
		return nil
	}
	return func(_, value []byte) bool {
		var v traj.RowView
		if v.Reset(value) != nil {
			return true
		}
		// TimeBounds walks the timestamps; an unbounded window skips it.
		if !w.Unbounded() && !w.admits(v.TimeBounds()) {
			return false
		}
		return f == nil || f(v)
	}
}

// serverFilter is the coprocessor push-down of Lemmas 12-14: rows that fail
// never leave the region server.
func serverFilter(qg *queryGeom, measure dist.Measure, eps float64) rowFilter {
	return func(v traj.RowView) bool {
		return localFilter(qg, measure, &v, eps)
	}
}

// serverFilterLive is serverFilter against a bound read per row instead of a
// snapshot: top-k scans push it down so that every result merged while a
// scan is still streaming tightens the filtering of the rows that region has
// not visited yet. Sound for the same reason the worker prefilter is — the
// bound only tightens, and localFilter rejections are lower-bound proofs, so
// any row that belongs in the final top-k passes at every bound the scan
// could observe.
func serverFilterLive(qg *queryGeom, measure dist.Measure, bound *refineBound) rowFilter {
	return func(v traj.RowView) bool {
		return localFilter(qg, measure, &v, bound.get())
	}
}

// endpointOnlyFilter is the reduced push-down of the ablation study and of
// JUST-style systems: Lemma 12 only, so nothing for Hausdorff.
func endpointOnlyFilter(qg *queryGeom, measure dist.Measure, eps float64) rowFilter {
	if !dist.SupportsEndpointLemma(measure) {
		return nil
	}
	return func(v traj.RowView) bool {
		if v.Len() == 0 {
			return false
		}
		if qg.points[0].Dist(v.First()) > eps {
			return false
		}
		return qg.points[len(qg.points)-1].Dist(v.Last()) <= eps
	}
}

// buildFilter selects the push-down according to the engine's tuning.
func (e *Engine) buildFilter(qg *queryGeom, eps float64) rowFilter {
	switch {
	case e.tuning.DisableLocalFilter:
		return nil
	case e.tuning.EndpointOnlyFilter:
		return endpointOnlyFilter(qg, e.measure, eps)
	default:
		return serverFilter(qg, e.measure, eps)
	}
}
