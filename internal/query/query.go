package query

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/geo"
	"repro/internal/traj"
)

// Kind names a query type. Its values are the wire names trassd accepts.
type Kind string

// The four query kinds.
const (
	// KindThreshold is the threshold similarity search (Algorithm 3): every
	// trajectory within Eps of Traj.
	KindThreshold Kind = "threshold"
	// KindTopK is the best-first top-k similarity search (Algorithm 4): the
	// K trajectories nearest to Traj.
	KindTopK Kind = "topk"
	// KindRange is the spatial range query: every trajectory with at least
	// one point inside Rect. Results carry no distance.
	KindRange Kind = "range"
	// KindKNN is the point k-nearest query: the K trajectories whose closest
	// approach to Point is smallest.
	KindKNN Kind = "knn"
)

// Query is one search request. Kind selects which of the other fields are
// read:
//
//	threshold  Traj, Eps, Window
//	topk       Traj, K, Window
//	range      Rect, Window
//	knn        Point, K
type Query struct {
	Kind   Kind
	Traj   *traj.Trajectory
	Eps    float64
	K      int
	Rect   geo.Rect
	Point  geo.Point
	Window TimeWindow
}

// ErrInvalidQuery wraps every error Validate returns: the request itself is
// malformed, so retrying it cannot succeed.
var ErrInvalidQuery = errors.New("invalid query")

func invalid(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidQuery, fmt.Sprintf(format, args...))
}

// Validate reports whether q is a well-formed request. The comparisons are
// written so that NaN fails them.
func (q Query) Validate() error {
	switch q.Kind {
	case KindThreshold, KindTopK:
		if q.Traj == nil || len(q.Traj.Points) == 0 {
			return invalid("%s requires a non-empty query trajectory", q.Kind)
		}
		if q.Kind == KindThreshold && !(q.Eps >= 0) {
			return invalid("threshold requires eps >= 0, got %v", q.Eps)
		}
	case KindRange:
		if !(q.Rect.Min.X <= q.Rect.Max.X && q.Rect.Min.Y <= q.Rect.Max.Y) {
			return invalid("malformed rect: min exceeds max")
		}
	case KindKNN:
		if !q.Window.Unbounded() {
			return invalid("knn has no time-window variant")
		}
	default:
		return invalid("unknown query kind %q", q.Kind)
	}
	if (q.Kind == KindTopK || q.Kind == KindKNN) && q.K <= 0 {
		return invalid("%s requires k > 0", q.Kind)
	}
	return nil
}

// Run executes one query: global pruning into key ranges, region scans with
// the local filter pushed down, and refinement, all against one snapshot.
//
// With a nil sink, Run collects the results in a deterministic order: row
// key for threshold and range, ascending distance for top-k and kNN. With a
// non-nil sink, Run returns no slice: threshold and range results stream to
// sink in refinement-completion order as the scans produce them, so memory
// stays bounded by the pipeline depth; top-k and kNN results are replayed to
// sink in ascending order once the search ends. A non-nil error from sink
// aborts the query and is returned as-is.
func (e *Engine) Run(ctx context.Context, q Query, sink func(Result) error) ([]Result, *Stats, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	var (
		rs    []Result
		stats *Stats
		err   error
	)
	switch q.Kind {
	case KindThreshold:
		return e.threshold(ctx, q.Traj, q.Eps, q.Window, sink)
	case KindRange:
		return e.rangeQuery(ctx, q.Rect, q.Window, sink)
	case KindTopK:
		rs, stats, err = e.topK(ctx, q.Traj, q.K, q.Window)
	case KindKNN:
		rs, stats, err = e.nearestToPoint(ctx, q.Point, q.K)
	}
	if err != nil || sink == nil {
		return rs, stats, err
	}
	for _, r := range rs {
		if err := sink(r); err != nil {
			return nil, stats, err
		}
	}
	return nil, stats, nil
}
