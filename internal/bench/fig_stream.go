package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/store"
)

// The stream experiment measures the streaming scan pipeline: refinement
// workers pull candidates from a bounded queue while later regions are still
// scanning, so scan latency and refine CPU overlap. The workload is the
// refine experiment's near-duplicate cluster — refinement-dominated, every
// row survives filtering — run over a deliberately slow scan: per-RPC
// latency on every region call and a serialized region fan-out, the regime
// where a pipeline without overlap would pay scan + refine while streaming
// pays ~max(scan, refine).
//
// The CI bench-smoke job records the JSON output (BENCH_stream.json); one
// row per measure tracks the pipeline's latency per commit, and the
// stall/peak-depth columns keep the backpressure accounting honest (peak
// depth may never exceed the configured queue depth).

const (
	streamWorkers = 4                    // refine pool
	streamDepth   = 8                    // candidate queue bound
	streamLatency = 2 * time.Millisecond // per-region RPC latency
)

// Stream regenerates the streaming pipeline table, one row per measure.
func Stream(cfg Config) ([]*Table, error) {
	tab := &Table{
		Title: fmt.Sprintf("Stream — streaming scan pipeline (%d candidates/query, %d workers, queue depth %d, %v/region RPC)",
			refineRows, streamWorkers, streamDepth, streamLatency),
		Columns: []string{"measure", "query median", "scan median", "refine median", "stall median", "peak depth"},
	}
	base, rows := refineWorkload(cfg.Seed)
	queries := cfg.Queries
	if queries > 5 {
		queries = 5 // refinement-dominated queries are expensive; medians stabilize fast
	}

	st, err := store.Open(store.Config{
		Dir:         filepath.Join(cfg.Dir, "stream"),
		RPCLatency:  streamLatency,
		Parallelism: 1, // serialize region scans: the slowest scan to overlap with
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if err := st.PutBatch(rows); err != nil {
		return nil, err
	}
	if err := st.Flush(); err != nil {
		return nil, err
	}

	for _, measure := range []dist.Measure{dist.Frechet, dist.DTW} {
		eng := query.New(st, measure)
		eng.SetRefineParallelism(streamWorkers)
		eng.SetStreamQueueDepth(streamDepth)
		eps := refineEps(measure)
		var queryTimes, scanTimes, refineTimes, stallTimes []time.Duration
		peak := 0
		for qi := 0; qi < queries; qi++ {
			t0 := time.Now()
			rs, qs, err := eng.Run(context.Background(), query.Query{Kind: query.KindThreshold, Traj: base, Eps: eps}, nil)
			if err != nil {
				return nil, err
			}
			queryTimes = append(queryTimes, time.Since(t0))
			scanTimes = append(scanTimes, qs.ScanTime)
			refineTimes = append(refineTimes, qs.RefineTime)
			stallTimes = append(stallTimes, qs.StreamStallTime)
			if qs.StreamPeakDepth > peak {
				peak = qs.StreamPeakDepth
			}
			if len(rs) != refineRows {
				return nil, fmt.Errorf("stream: %s matched %d of %d cluster rows; workload must refine the whole cluster",
					measure, len(rs), refineRows)
			}
		}
		if peak > streamDepth {
			return nil, fmt.Errorf("stream: %s peak queue depth %d exceeds configured %d", measure, peak, streamDepth)
		}
		tab.AddRow(measure.String(),
			median(queryTimes).Round(time.Microsecond).String(),
			median(scanTimes).Round(time.Microsecond).String(),
			median(refineTimes).Round(time.Microsecond).String(),
			median(stallTimes).Round(time.Microsecond).String(),
			fmt.Sprintf("%d", peak))
		cfg.logf("stream %s done", measure)
	}
	return []*Table{tab}, nil
}
