package query

import (
	"context"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/kv"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// threshold runs the threshold similarity search of Algorithm 3: global
// pruning plans the key ranges, local filtering runs pushed down inside the
// regions, and the survivors stream through refinement with the full
// similarity measure as the scans produce them.
func (e *Engine) threshold(ctx context.Context, q *traj.Trajectory, eps float64, w TimeWindow, sink func(Result) error) ([]Result, *Stats, error) {
	qg := e.prepare(q)
	stats := &Stats{}

	// One snapshot per query: planning and every scan read the same
	// point-in-time view, immune to concurrent ingest and splits.
	snap, err := e.store.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = snap.Close() }()

	t0 := time.Now()
	ranges, _ := e.store.Index().GlobalPruneOpts(qg.xq, eps, e.budget,
		xzstar.PruneOptions{DisableCodePruning: e.tuning.DisablePosCodes})
	stats.PruneTime = time.Since(t0)
	stats.Ranges = len(ranges)
	if len(ranges) == 0 {
		return nil, stats, nil
	}

	filter := pushDown(w, e.buildFilter(qg, eps))
	scan := func(sctx context.Context, emit func([]kv.Entry) error) (*cluster.ScanResult, error) {
		return snap.ScanRangesStream(sctx, ranges, filter, 0, store.StreamOptions{}, emit)
	}

	bounded := dist.BoundedFor(e.measure)
	var out []keyedResult
	nres := 0
	err = e.refineFromScan(ctx, stats, scan,
		func(rec *traj.Record) refineOutcome {
			d := bounded(qg.points, rec.Points, eps)
			return refineOutcome{rec: rec, dist: d, keep: d <= eps}
		},
		func(o refineOutcome) error {
			if !o.keep {
				return nil
			}
			r := Result{ID: o.rec.ID, Distance: o.dist, Points: o.rec.Points}
			nres++
			if sink != nil {
				return sink(r)
			}
			out = append(out, keyedResult{key: o.key, res: r})
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	stats.Results = nres
	return finishKeyed(out), stats, nil
}
