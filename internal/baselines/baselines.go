// Package baselines implements the four systems TraSS is evaluated against
// in Section VI: DFT (VLDB'17, R-tree partitions), DITA (SIGMOD'18, pivot
// trie), REPOSE (ICDE'21, reference-point pruning, top-k only) and JUST
// (ICDE'20, XZ2 on a key-value store). Each follows its paper's candidate
// generation closely enough to reproduce the comparison's shape: what gets
// pruned, how many candidates survive, and where each system pays.
//
// DFT, DITA and REPOSE are in-memory engines here (their originals hold all
// data in Spark executors' memory); JUST runs on the same cluster substrate
// as TraSS because its original runs on HBase.
package baselines

import (
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/traj"
)

// Result is one matched trajectory.
type Result struct {
	ID       string
	Distance float64
}

// Stats describes one query's work, in the quantities Figures 9-11 compare.
type Stats struct {
	Candidates int64 // trajectories verified with the full measure
	Scanned    int64 // index entries / rows visited to find them
	PruneTime  time.Duration
	RefineTime time.Duration
}

// System is a trajectory similarity search engine under comparison.
type System interface {
	Name() string
	// Build indexes the dataset and returns the time spent indexing.
	Build(trajs []*traj.Trajectory) (time.Duration, error)
	// Threshold runs a threshold similarity search. Systems that do not
	// support it (REPOSE) return ErrUnsupported.
	Threshold(q *traj.Trajectory, eps float64) ([]Result, *Stats, error)
	// TopK runs a top-k similarity search.
	TopK(q *traj.Trajectory, k int) ([]Result, *Stats, error)
	Close() error
}

// ErrUnsupported marks an operation a baseline does not provide.
type errUnsupported struct{ op, sys string }

func (e errUnsupported) Error() string { return e.sys + " does not support " + e.op }

// IsUnsupported reports whether err marks an unsupported operation.
func IsUnsupported(err error) bool {
	_, ok := err.(errUnsupported)
	return ok
}

// verify computes the full measure for each candidate id and keeps those
// within eps, sorted by distance.
func verify(measure dist.Measure, data map[string]*traj.Trajectory, q *traj.Trajectory, ids []string, eps float64) []Result {
	bounded := dist.BoundedFor(measure)
	var out []Result
	for _, id := range ids {
		t := data[id]
		if t == nil {
			continue
		}
		if d := bounded(q.Points, t.Points, eps); d <= eps {
			out = append(out, Result{ID: id, Distance: d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	return out
}

// expandingTopK turns a threshold search into a top-k search by doubling the
// threshold until at least k results lie strictly inside it. Completeness:
// once the k-th best distance is <= eps, no unseen trajectory can beat it.
func expandingTopK(
	k int,
	initial float64,
	search func(eps float64) ([]Result, *Stats, error),
) ([]Result, *Stats, error) {
	agg := &Stats{}
	eps := initial
	for attempt := 0; ; attempt++ {
		res, st, err := search(eps)
		if err != nil {
			return nil, nil, err
		}
		agg.Candidates += st.Candidates
		agg.Scanned += st.Scanned
		agg.PruneTime += st.PruneTime
		agg.RefineTime += st.RefineTime
		if len(res) >= k && res[k-1].Distance <= eps {
			return res[:k], agg, nil
		}
		// The whole plane has diameter sqrt(2); beyond that everything
		// matched already.
		if eps > 2 {
			if len(res) > k {
				res = res[:k]
			}
			return res, agg, nil
		}
		eps *= 2
	}
}
