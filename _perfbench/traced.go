package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	trass "repro"
)

// tracedRun is the separate per-layer run. It measures half the window with
// tracing off and half with it on, over the same op sequence, so the
// difference of the two medians is the tracing overhead.
func tracedRun(ctx context.Context, w *workload, fx *fixture, opts options, rep *report, runDir string) (result, error) {
	replica, err := openReplica(fx.dir, filepath.Join(runDir, "replica"))
	if err != nil {
		return result{}, fmt.Errorf("replica: %w", err)
	}
	defer replica.Close()
	rp := newReplayer(replica)
	res := result{Correct: true, Metrics: rep.metrics}

	var pool []*trass.Trajectory
	var overhead float64
	if w.serve {
		pool = writePool(opts.seed)
		if overhead, err = unloadedPass(ctx, fx); err != nil {
			return oracleFailed(res, err), nil
		}
	} else if err := warmUp(ctx, fx, w); err != nil {
		return result{}, err
	}

	g := sampleGauges(fx.db, 20*time.Millisecond)
	s0, err := fx.db.StorageStats()
	if err != nil {
		g.halt()
		return result{}, err
	}
	half := opts.seconds / 2
	tr := newTracer()
	var un, tp phase
	if w.serve {
		un = serveLoop(ctx, fx, half, 0, 0, pool, nil, nil)
		tp = serveLoop(ctx, fx, half, un.nextOp, un.nextPut, pool, tr, rp)
	} else {
		un = closedLoop(ctx, fx, half, 0, nil, nil)
		tp = closedLoop(ctx, fx, half, 0, tr, rp)
	}
	g.halt()
	s1, err := fx.db.StorageStats()
	if err != nil {
		return result{}, err
	}
	kd := s1.KV.Sub(s0.KV)

	if err := checkOracle(ctx, fx.db, oracleSampleOps(fx.ops, opts.seed), datasetCorpus(w, opts.seed, tp.nextPut)); err != nil {
		return oracleFailed(res, err), nil
	}

	// Put latency: the open-loop writer's under serve-rw; otherwise a
	// closed-loop probe after the window, which the kv figures above exclude.
	var put latency
	if w.serve {
		put, _ = byTime(tp.plat, tp.pat)
	} else {
		rounds, attempted, failed := putProbe(fx, opts.seed)
		res.Attempted += attempted
		res.Failed += failed
		put = byWindow(rounds)
	}

	spanPath := filepath.Join(opts.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, opts.seed))
	if err := writeSpans(spanPath, tr.spans); err != nil {
		return result{}, fmt.Errorf("span file: %w", err)
	}
	rows := map[string]*layerRow{}
	table := layerTable(tr.spans)
	for _, r := range table {
		rows[r.name] = r
	}
	row := func(name string) *layerRow {
		if r := rows[name]; r != nil {
			return r
		}
		return &layerRow{attrSums: map[string]float64{}}
	}
	// Root spans of queries carry QueryStats and the kv counter deltas.
	var qops float64
	sums := map[string]float64{}
	for _, r := range table {
		if strings.HasPrefix(r.name, "op.") && r.name != "op.put" {
			qops += float64(r.count)
			for k, v := range r.attrSums {
				sums[k] += v
			}
		}
	}
	perOp := func(k string) float64 { return ratio(sums[k], qops) }
	selfPer := func(name string, unit time.Duration) float64 {
		r := row(name)
		return ratio(float64(r.selfNS)/float64(unit), float64(r.count))
	}
	selfPerAttr := func(name, attr string, unit time.Duration) float64 {
		r := row(name)
		return ratio(float64(r.selfNS)/float64(unit), r.attrSums[attr])
	}
	printLayerTable(os.Stdout, w.name, table, int(qops)+int(tp.puts))
	fmt.Printf("# %s spans: %d written to %s\n", w.name, len(tr.spans), spanPath)

	hits, reads := sums["kv_cache_hits"], sums["kv_blocks_read"]
	puts := un.puts + tp.puts
	var putBytes int64
	for i := 0; i < tp.nextPut; i++ {
		putBytes += userBytes(written(pool, i))
	}
	untraced, traced := summarize(un.qlat), summarize(tp.qlat)

	rep.set("xzstar.plan_us", selfPer("xzstar.plan", time.Microsecond), "us", "replayed GlobalPrune/RangeCover, self time per call")
	rep.set("xzstar.ranges", ratio(row("xzstar.plan").attrSums["ranges"], float64(row("xzstar.plan").count)), "count/op", "")
	rep.set("xzstar.elements_visited", ratio(row("xzstar.plan").attrSums["elements_visited"], float64(row("xzstar.plan").count)), "count/op", "")
	rep.set("kv.iterators", perOp("kv_iterators"), "count/op", "kv snapshot iterators opened")
	rep.set("kv.entries_walked", perOp("kv_entries_walked"), "count/op", "")
	rep.set("cluster.rpcs", perOp("rpcs"), "count/op", "")
	rep.set("cluster.retries", perOp("retries"), "count/op", "")
	rep.set("kv.blocks_read", perOp("kv_blocks_read"), "count/op", "block cache misses")
	rep.set("kv.bytes_read", perOp("kv_bytes_read"), "B/op", "")
	rep.set("kv.cache_hit_rate", ratio(hits, hits+reads), "ratio", fmt.Sprintf("%.0f hits of %.0f block lookups", hits, hits+reads))
	rep.set("cluster.rows_scanned", perOp("rows_scanned"), "count/op", "")
	rep.set("cluster.rows_shipped", perOp("rows_shipped"), "count/op", "")
	rep.set("cluster.filter_pass", ratio(sums["rows_shipped"], sums["rows_scanned"]), "ratio",
		fmt.Sprintf("%.0f shipped of %.0f scanned", sums["rows_shipped"], sums["rows_scanned"]))
	rep.set("cluster.bytes_shipped", perOp("bytes_shipped"), "B/op", "")
	rep.set("traj.features_us", selfPer("traj.features", time.Microsecond), "us", "replayed ComputeFeatures")
	rep.set("traj.decode_us_per_row", selfPerAttr("traj.decode", "rows", time.Microsecond), "us",
		fmt.Sprintf("store.DecodeRow over %.0f replayed rows", row("traj.decode").attrSums["rows"]))
	rep.set("store.scan_nofilter_ms", selfPer("store.scan_nofilter", time.Millisecond), "ms", "replayed snapshot scan of the planned ranges, no filter")
	rep.set("query.scan_ms", perOp("scan_ms"), "ms", "QueryStats.ScanTime, filter pushed down")
	rep.set("dist.within_us", selfPerAttr("dist.within", "calls", time.Microsecond), "us",
		fmt.Sprintf("per call, %.0f calls", row("dist.within").attrSums["calls"]))
	rep.set("dist.full_us", selfPerAttr("dist.full", "calls", time.Microsecond), "us",
		fmt.Sprintf("per call, %.0f calls", row("dist.full").attrSums["calls"]))
	rep.set("query.refined", perOp("refined"), "count/op", "")
	rep.set("query.refine_cpu_ms", perOp("refine_cpu_ms"), "ms", "")
	rep.set("query.prune_ms", perOp("prune_ms"), "ms", "overlaps scan and refine clocks")
	rep.set("query.refine_ms", perOp("refine_ms"), "ms", "")
	rep.set("query.stall_ms", perOp("stall_ms"), "ms", "")
	rep.set("query.precision", ratio(sums["results"], sums["rows_shipped"]), "ratio",
		fmt.Sprintf("%.0f results of %.0f shipped", sums["results"], sums["rows_shipped"]))
	rep.set("server.overhead_ms", overhead, "ms", "wire minus embedded p50, unloaded, 1 connection")
	rep.set("server.bytes_per_match", ratio(float64(tp.bytes), float64(tp.matches)), "B",
		fmt.Sprintf("%d response bytes over %d matches", tp.bytes, tp.matches))
	rep.set("server.shed", float64(un.shed+tp.shed), "count", "429 responses in the window")
	rep.set("kv.write_amp", ratio(float64(kd.BytesWritten), float64(putBytes)), "ratio",
		fmt.Sprintf("%d B written by kv over %d user B put", kd.BytesWritten, putBytes))
	rep.set("kv.flushes", float64(kd.Flushes), "count", "in the window")
	rep.set("kv.compactions", float64(kd.Compactions), "count", "in the window")
	rep.set("kv.group_commits_per_put", ratio(float64(kd.GroupCommits), float64(puts)), "ratio",
		fmt.Sprintf("%d group commits over %d puts", kd.GroupCommits, puts))
	rep.set("kv.frozen_memtables_max", float64(g.frozen), "count", "sampled every 20 ms")
	rep.set("kv.obsolete_tables_max", float64(g.obsolete), "count", "sampled every 20 ms")
	rep.set("kv.pinned_snapshots_end", float64(s1.KV.PinnedSnapshots), "count", "")
	rep.set("kv.put_p50_ms", put.p50, "ms", put.p50Note())
	rep.set("kv.put_tail_ms", put.tail, "ms", put.tailNote())
	rep.set("loadgen.late_p99_ms", lateP99(append(un.late, tp.late...)), "ms", "open-loop generator lateness")
	rep.set("self.replay_us", selfPer("replay", time.Microsecond), "us", "replay bookkeeping outside the layer calls")
	rep.set("trace.untraced_p50_ms", untraced.p50, "ms", fmt.Sprintf("n=%d", untraced.n))
	rep.set("trace.traced_p50_ms", traced.p50, "ms", fmt.Sprintf("n=%d", traced.n))
	rep.set("trace.overhead_ms", traced.p50-untraced.p50, "ms", "traced minus untraced query p50")

	res.Attempted += un.attempted + tp.attempted
	res.Failed += un.failed + tp.failed
	return res, nil
}
