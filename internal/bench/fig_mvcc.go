package bench

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	trass "repro"
	"repro/internal/gen"
)

// The mvcc experiment measures what the snapshot read path buys: reader
// latency that does not degrade when writers and a long-running scanner are
// hammering the same store. Every query pins one immutable snapshot at entry
// — frozen memtables plus refcounted tables per region — so the committer
// never waits for a reader and a reader never waits for a flush, compaction,
// or region split. The table contrasts an idle store with the same store
// under 8 background re-put writers plus a background full-range scanner
// (which keeps snapshots pinned across whatever the writers trigger).
//
// The CI bench-smoke job records the JSON output (BENCH_mvcc.json). The Get
// p99 is the contract: with 8 writers racing, point-read p99 must stay
// within mvccP99Headroom× the idle p99 (plus a small absolute slack for
// scheduler jitter on microsecond-scale ops) — the run errors out otherwise,
// failing the job rather than quietly shipping a read path that blocks on
// its write path again. Gets are the blocking signal: a reader that waits on
// the committer's lock, a flush, or a compaction shows up as millisecond
// spikes there. The threshold-query columns are recorded for the table but
// not gated — multi-ms CPU-bound queries on a 2-core CI runner measure
// scheduler contention, not lock coupling.

const (
	mvccGets        = 300
	mvccWriterPause = 2 * time.Millisecond  // per-writer gap: steady ingest, not CPU saturation
	mvccWriterIDs   = 32                    // per-writer id pool; wrap-around re-puts hit the overwrite path
	mvccScanPacing  = 1 * time.Millisecond  // per-match sleep: the scanner's job is to PIN, not to burn CPU
	mvccSweepPause  = 25 * time.Millisecond // between sweeps, so short sweeps don't spin the candidate scan
	mvccP99Headroom = 2.0
	// The slacks absorb scheduler noise — an idle Get p99 of tens of
	// microseconds makes a bare 2x ratio a coin flip on a 2-core runner where
	// a goroutine can wait several ms for a core behind the background load.
	// Genuine reader-blocking still trips both gates: a read path that copies
	// the memtable or takes the committer's lock per read inflates the median
	// past 2x+250µs, and one that waits out flush/compaction/fsync windows
	// costs tens of ms at p99, past 2x+8ms.
	mvccP50Slack = 250 * time.Microsecond
	mvccP99Slack = 8 * time.Millisecond
	// mvccGateMinQueries keeps the gate honest: tiny smoke configs (like the
	// all-experiments test, which races every runner in parallel) record the
	// table without arming it. CI's bench-smoke run passes enough queries.
	mvccGateMinQueries = 10
)

// mvccWalk builds a short random-walk trajectory for id. Writers cycle a
// small id pool, so each put after the first exercises the overwrite path
// (delete stale row + write new one) that churns the index keys — while the
// benchmark dataset itself stays untouched, keeping the foreground query
// work identical between the idle and contended rows.
func mvccWalk(rng *rand.Rand, id string) *trass.Trajectory {
	x, y := rng.Float64(), rng.Float64()
	pts := make([]trass.Point, 8)
	for i := range pts {
		pts[i] = trass.Point{X: clamp01(x), Y: clamp01(y)}
		x += (rng.Float64() - 0.5) * 1e-3
		y += (rng.Float64() - 0.5) * 1e-3
	}
	return trass.NewTrajectory(id, pts)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return 0.999999
	}
	return v
}

// mvccRowResult carries one contended-or-idle row's gate inputs out of
// mvccRow; the table row itself is appended by mvccRow.
type mvccRowResult struct {
	getP50, getP99 time.Duration
	queries        int
}

// MVCC regenerates the snapshot-isolation latency table.
func MVCC(cfg Config) ([]*Table, error) {
	trajs := cfg.dataset(dsTDrive)
	queries := gen.Queries(trajs, cfg.Seed+11, cfg.Queries)
	if len(queries) == 0 {
		return nil, fmt.Errorf("mvcc: empty query set")
	}
	eps := gen.DegreesToNorm(0.01)

	tab := &Table{
		Title: fmt.Sprintf("MVCC — snapshot reads under write load: Get and threshold p50/p99, idle vs %d writers + scanner (T-Drive %d, %d queries)",
			8, len(trajs), len(queries)),
		Columns: []string{"writers", "scanner", "gets", "get p50", "get p99", "queries", "query p50", "query p99", "writes", "peak pinned", "peak obsolete"},
	}

	idle, err := mvccRow(cfg, tab, trajs, queries, eps, 0)
	if err != nil {
		return nil, err
	}
	loaded, err := mvccRow(cfg, tab, trajs, queries, eps, 8)
	if err != nil {
		return nil, err
	}

	if loaded.queries >= mvccGateMinQueries && idle.getP99 > 0 {
		if loaded.getP50 > time.Duration(mvccP99Headroom*float64(idle.getP50))+mvccP50Slack {
			return nil, fmt.Errorf("mvcc: get p50 %v with 8 writers exceeds %.1fx idle p50 %v (+%v slack); every read is paying for the write path",
				loaded.getP50, mvccP99Headroom, idle.getP50, mvccP50Slack)
		}
		if loaded.getP99 > time.Duration(mvccP99Headroom*float64(idle.getP99))+mvccP99Slack {
			return nil, fmt.Errorf("mvcc: get p99 %v with 8 writers exceeds %.1fx idle p99 %v (+%v slack); readers are blocking on the write path",
				loaded.getP99, mvccP99Headroom, idle.getP99, mvccP99Slack)
		}
	}
	return []*Table{tab}, nil
}

// mvccRow runs the measured foreground workload against one fresh store,
// idle (writers == 0) or under background load, and appends its table row.
func mvccRow(cfg Config, tab *Table, trajs []*trass.Trajectory, queries []*trass.Trajectory, eps float64, writers int) (res mvccRowResult, retErr error) {
	db, err := trass.Open(filepath.Join(cfg.Dir, fmt.Sprintf("mvcc-%d", writers)), trass.WithShards(8))
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := db.Close(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	if err := db.PutBatch(trajs); err != nil {
		return res, err
	}
	if err := db.Flush(); err != nil {
		return res, err
	}

	// Background load: writers cycle short random-walk trajectories over a
	// small id pool (the overwrite path), the scanner keeps a range stream —
	// and so a pinned snapshot — alive, pacing itself per match so it pins
	// without monopolizing the CPU. Neither runs in the idle row. All of it
	// quiesces via bgCtx; the deferred cancel/Wait make early error returns
	// safe and the explicit pair below precedes the leak checks.
	ctx := context.Background()
	bgCtx, cancelBg := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancelBg()
	var writes atomic.Int64
	var bgErr atomic.Value
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 977*int64(w)))
			for i := 0; bgCtx.Err() == nil; i++ {
				id := fmt.Sprintf("mvcc-w%d-%02d", w, i%mvccWriterIDs)
				if err := db.Put(mvccWalk(rng, id)); err != nil {
					bgErr.CompareAndSwap(nil, fmt.Errorf("writer %d: %w", w, err))
					return
				}
				writes.Add(1)
				select {
				case <-bgCtx.Done():
					return
				case <-time.After(mvccWriterPause):
				}
			}
		}(w)
	}
	if writers > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Center-half window: enough matches that each sweep holds its
			// snapshot for a long stretch, few enough that the refine burst
			// at sweep start doesn't saturate a small CI runner's cores —
			// which would measure scheduler starvation, not blocking.
			window := trass.Rect{Min: trass.Point{X: 0.25, Y: 0.25}, Max: trass.Point{X: 0.75, Y: 0.75}}
			for bgCtx.Err() == nil {
				_, err := db.Search(bgCtx, trass.Query{Kind: trass.KindRange, Rect: window}, func(trass.Match) error {
					if err := bgCtx.Err(); err != nil {
						return err
					}
					time.Sleep(mvccScanPacing)
					return nil
				})
				if err != nil && bgCtx.Err() == nil {
					bgErr.CompareAndSwap(nil, fmt.Errorf("scanner: %w", err))
					return
				}
				select {
				case <-bgCtx.Done():
					return
				case <-time.After(mvccSweepPause):
				}
			}
		}()
	}

	// Foreground measurements, with the MVCC gauges sampled alongside.
	var peakPinned, peakObsolete int64
	sampleGauges := func() error {
		st, err := db.StorageStats()
		if err != nil {
			return err
		}
		if st.KV.PinnedSnapshots > peakPinned {
			peakPinned = st.KV.PinnedSnapshots
		}
		if st.KV.ObsoleteTables > peakObsolete {
			peakObsolete = st.KV.ObsoleteTables
		}
		return nil
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	getTimes := make([]time.Duration, 0, mvccGets)
	for i := 0; i < mvccGets; i++ {
		id := trajs[rng.Intn(len(trajs))].ID
		t0 := time.Now()
		if _, err := db.Get(id); err != nil {
			return res, fmt.Errorf("mvcc: get %s: %w", id, err)
		}
		getTimes = append(getTimes, time.Since(t0))
	}
	queryTimes := make([]time.Duration, 0, len(queries))
	for _, q := range queries {
		t0 := time.Now()
		if _, _, err := db.Collect(ctx, trass.Query{Kind: trass.KindThreshold, Traj: q, Eps: eps}); err != nil {
			return res, fmt.Errorf("mvcc: threshold: %w", err)
		}
		queryTimes = append(queryTimes, time.Since(t0))
		if err := sampleGauges(); err != nil {
			return res, fmt.Errorf("mvcc: stats: %w", err)
		}
	}

	cancelBg()
	wg.Wait()
	if err, ok := bgErr.Load().(error); ok && err != nil {
		return res, fmt.Errorf("mvcc: background load failed: %w", err)
	}
	// After quiescing, no reader is pinned: leaked snapshots show up here.
	st, err := db.StorageStats()
	if err != nil {
		return res, err
	}
	if st.KV.PinnedSnapshots != 0 {
		return res, fmt.Errorf("mvcc: %d snapshots still pinned after quiesce — a query leaked its snapshot", st.KV.PinnedSnapshots)
	}

	res.getP50 = median(getTimes)
	res.getP99 = percentile(getTimes, 0.99)
	res.queries = len(queryTimes)
	queryP99 := percentile(queryTimes, 0.99)
	scanner := "off"
	if writers > 0 {
		scanner = "on"
	}
	tab.AddRow(
		fmt.Sprintf("%d", writers),
		scanner,
		fmt.Sprintf("%d", len(getTimes)),
		res.getP50.Round(time.Microsecond).String(),
		res.getP99.Round(time.Microsecond).String(),
		fmt.Sprintf("%d", len(queryTimes)),
		median(queryTimes).Round(time.Microsecond).String(),
		queryP99.Round(time.Microsecond).String(),
		fmt.Sprintf("%d", writes.Load()),
		fmt.Sprintf("%d", peakPinned),
		fmt.Sprintf("%d", peakObsolete),
	)
	cfg.logf("mvcc %d writers done: get p50 %v p99 %v, query p99 %v over %d background writes", writers, res.getP50, res.getP99, queryP99, writes.Load())
	return res, nil
}
