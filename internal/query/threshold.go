package query

import (
	"context"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/kv"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// Threshold runs the threshold similarity search of Algorithm 3: global
// pruning plans the key ranges, local filtering runs pushed down inside the
// regions, and the survivors stream through refinement with the full
// similarity measure as the scans produce them.
func (e *Engine) Threshold(q *traj.Trajectory, eps float64) ([]Result, *Stats, error) {
	return e.threshold(context.Background(), q, eps, TimeWindow{})
}

// ThresholdContext is Threshold under a context: cancellation aborts the
// storage scans between rows and surfaces ctx's error.
func (e *Engine) ThresholdContext(ctx context.Context, q *traj.Trajectory, eps float64) ([]Result, *Stats, error) {
	return e.threshold(ctx, q, eps, TimeWindow{})
}

// ThresholdFunc streams each match to fn as refinement produces it instead
// of collecting a result slice: memory stays bounded by the pipeline depth
// no matter how many trajectories match. Delivery order follows refinement
// completion, not key order. A non-nil error from fn aborts the query and is
// returned as-is.
func (e *Engine) ThresholdFunc(ctx context.Context, q *traj.Trajectory, eps float64, fn func(Result) error) (*Stats, error) {
	_, stats, err := e.thresholdImpl(ctx, q, eps, TimeWindow{}, fn)
	return stats, err
}

func (e *Engine) threshold(ctx context.Context, q *traj.Trajectory, eps float64, w TimeWindow) ([]Result, *Stats, error) {
	return e.thresholdImpl(ctx, q, eps, w, nil)
}

func (e *Engine) thresholdImpl(ctx context.Context, q *traj.Trajectory, eps float64, w TimeWindow, sink func(Result) error) ([]Result, *Stats, error) {
	qg, err := e.prepare(q)
	if err != nil {
		return nil, nil, err
	}
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
		return snap.ScanRangesStream(sctx, ranges, filter, 0, e.streamOptions(false), emit)
	}

	bounded := dist.BoundedFor(e.measure)
	var out []keyedResult
	nres := 0
	err = e.runPipeline(ctx, stats, scan,
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
