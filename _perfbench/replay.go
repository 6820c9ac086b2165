package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"time"

	trass "repro"
	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// Per query, the decode replay times at most replayDecodeRows of the
// scanned rows and the dist replay at most replayCandidates of those.
const (
	replayDecodeRows = 2048
	replayCandidates = 256
)

// replayer re-issues one traced query's layer calls directly against a
// replica store, one child span per call under a "replay" span that is a
// sibling of the operation's root span.
type replayer struct {
	st     *store.Store
	within dist.WithinFunc
	full   dist.Func
}

func newReplayer(st *store.Store) *replayer {
	return &replayer{st: st, within: dist.WithinFor(dist.Frechet), full: dist.For(dist.Frechet)}
}

func (rp *replayer) replay(ctx context.Context, tr *tracer, trace int64, o *op, got []trass.Match) {
	parent := tr.reserve(trace, "replay")
	start := time.Now()
	defer func() { tr.fill(parent, start, time.Now()) }()
	ix := rp.st.Index()

	// The k-th distance of a ranked answer is the radius the final plan
	// covers; it stands in for eps.
	eps := o.eps
	for _, m := range got {
		if o.kind == kindTopK || o.kind == kindKNN {
			eps = max(eps, m.Distance)
		}
	}

	var ranges []xzstar.ValueRange
	var ps xzstar.PruneStats
	t := time.Now()
	switch o.kind {
	case kindThreshold, kindTopK:
		f := traj.ComputeFeatures(o.q, rp.st.Config().DPTolerance)
		t1 := time.Now()
		tr.record(trace, parent, "traj.features", t, t1, nil)
		t = t1
		ranges, ps = ix.GlobalPrune(xzstar.NewQuery(o.q.Points, f.Boxes), eps, 0)
	case kindKNN:
		ranges, ps = ix.RangeCover(geo.Rect{Min: o.p, Max: o.p}.Buffer(eps), 0)
	default:
		ranges, ps = ix.RangeCover(o.window, 0)
	}
	t1 := time.Now()
	tr.record(trace, parent, "xzstar.plan", t, t1, map[string]float64{
		"ranges": float64(len(ranges)), "elements_visited": float64(ps.ElementsVisited),
	})

	var vals [][]byte
	t = time.Now()
	snap, err := rp.st.Snapshot()
	if err != nil {
		return
	}
	_, err = snap.ScanRangesStream(ctx, ranges, nil, 0, store.StreamOptions{}, func(es []kv.Entry) error {
		for _, e := range es {
			vals = append(vals, e.Value)
		}
		return nil
	})
	_ = snap.Close()
	t1 = time.Now()
	if err != nil {
		return
	}
	tr.record(trace, parent, "store.scan_nofilter", t, t1, map[string]float64{"rows": float64(len(vals))})

	vals = vals[:min(len(vals), replayDecodeRows)]
	recs := make([]*traj.Record, 0, len(vals))
	t = time.Now()
	for _, v := range vals {
		if rec, err := store.DecodeRow(v); err == nil {
			recs = append(recs, rec)
		}
	}
	t1 = time.Now()
	tr.record(trace, parent, "traj.decode", t, t1, map[string]float64{"rows": float64(len(vals))})

	if o.kind != kindThreshold && o.kind != kindTopK {
		return
	}
	cands := recs[:min(len(recs), replayCandidates)]
	pass := make([]*traj.Record, 0, len(cands))
	t = time.Now()
	for _, r := range cands {
		if rp.within(o.q.Points, r.Points, eps) {
			pass = append(pass, r)
		}
	}
	t1 = time.Now()
	tr.record(trace, parent, "dist.within", t, t1, map[string]float64{"calls": float64(len(cands))})
	if len(pass) == 0 {
		pass = cands[:min(len(cands), 8)]
	}
	t = time.Now()
	for _, r := range pass {
		_ = rp.full(o.q.Points, r.Points)
	}
	t1 = time.Now()
	tr.record(trace, parent, "dist.full", t, t1, map[string]float64{"calls": float64(len(pass))})
}

// queryAttrs flattens an embedded query's stats and kv counter deltas.
func queryAttrs(st *trass.QueryStats, kd kv.StatsSnapshot) map[string]float64 {
	return withKV(statsAttrs(st.PruneTime, st.ScanTime, st.RefineTime, st.RefineCPUTime, st.StreamStallTime,
		st.RowsScanned, st.Retrieved, st.BytesShipped, st.RPCs, st.Retries, st.Refined, st.Results), kd)
}

// withKV adds kv counter deltas to a root span's attributes. Under serve-rw
// the writer runs concurrently, so there they include its reads.
func withKV(a map[string]float64, kd kv.StatsSnapshot) map[string]float64 {
	a["kv_iterators"] = float64(kd.Scans)
	a["kv_entries_walked"] = float64(kd.EntriesWalked)
	a["kv_blocks_read"] = float64(kd.BlocksRead)
	a["kv_bytes_read"] = float64(kd.BytesRead)
	a["kv_cache_hits"] = float64(kd.CacheHits)
	return a
}

// wireAttrs flattens the stats footer of a streamed query.
func wireAttrs(ws *server.WireStats, matches int, kd kv.StatsSnapshot) map[string]float64 {
	if ws == nil {
		return withKV(map[string]float64{"results": float64(matches)}, kd)
	}
	ns := func(v int64) time.Duration { return time.Duration(v) }
	return withKV(statsAttrs(ns(ws.PruneNS), ns(ws.ScanNS), ns(ws.RefineNS), ns(ws.RefineCPUNS), ns(ws.StreamStallNS),
		ws.RowsScanned, ws.Retrieved, ws.BytesShipped, ws.RPCs, ws.Retries, ws.Refined, ws.Results), kd)
}

func statsAttrs(prune, scan, refine, refineCPU, stall time.Duration, scanned, shipped, bytes, rpcs, retries int64, refined, results int) map[string]float64 {
	return map[string]float64{
		"prune_ms": ms(prune), "scan_ms": ms(scan), "refine_ms": ms(refine),
		"refine_cpu_ms": ms(refineCPU), "stall_ms": ms(stall),
		"rows_scanned": float64(scanned), "rows_shipped": float64(shipped),
		"bytes_shipped": float64(bytes), "rpcs": float64(rpcs), "retries": float64(retries),
		"refined": float64(refined), "results": float64(results),
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}
