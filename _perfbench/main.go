// Command perfbench is the repository's benchmark: it runs one of four TraSS
// workloads (or all of them) on seeded synthetic data, checks a seeded
// sample of the answers against brute force, and prints every metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 a separate traced run reports the per-layer metrics and
// writes every span to a JSON-lines file next to the build outputs.
//
// Usage (from the repository root, via the build script):
//
//	bash _perfbench/run.sh --workload threshold-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	trass "repro"
	"repro/internal/geo"
	"repro/internal/server"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // build-output directory; databases and span files go here
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for the generated data and query lists")
	secs := flag.Float64("seconds", 10, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for databases and span files")
	flag.Parse()

	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := lookupWorkload(*name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	opts := options{seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), trace: *trace == 1, dir: *dir}
	if err := os.MkdirAll(opts.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		res, err := runWorkload(context.Background(), w, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if len(ws) == 1 {
			total = res
			break
		}
		line, _ := json.Marshal(res)
		fmt.Printf("# %s %s\n", w.name, line)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[w.name+"/"+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// report collects metrics and prints each as it is set.
type report struct {
	workload string
	metrics  map[string]metric
}

func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.show(name, v, unit, note)
}

// show prints a figure without adding it to the result's metrics.
func (r *report) show(name string, v float64, unit, note string) {
	if note != "" {
		note = "  # " + note
	}
	fmt.Printf("%-16s %-28s %14.6g %-8s%s\n", r.workload, name, v, unit, note)
}

func runWorkload(ctx context.Context, w *workload, opts options) (result, error) {
	runDir := filepath.Join(opts.dir, fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(runDir)
	rep := &report{workload: w.name, metrics: map[string]metric{}}

	var fx *fixture
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return result{}, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		fx, err = setup(ctx, w, opts.seed, filepath.Join(runDir, "db"))
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fx.close()
	// Write back what set-up left dirty, so the page cache's flushing does
	// not land in the measured window.
	syscall.Sync()
	disk, err := diskBytes(fx.dir)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# %s seed=%d: %d trajectories, %.1f MB on disk after set-up, block cache %d MiB (%d regions x %d MiB), %d queries in the list\n# why: %s\n",
		w.name, opts.seed, fx.rows, float64(disk)/1e6, regionCount*regionCacheMiB, regionCount, regionCacheMiB, len(fx.ops), w.why)
	if w.serve {
		fmt.Printf("# %s sends streamed threshold queries back to back on 1 connection beside %.0f puts/s, async WAL, 4 MiB memtables, compaction at 6 tables\n",
			w.name, servePutRate)
	}
	if opts.trace {
		return tracedRun(ctx, w, fx, opts, rep, runDir)
	}

	res := result{Correct: true, Metrics: rep.metrics}
	var pool []*trass.Trajectory
	if w.serve {
		pool = writePool(opts.seed)
		if _, err := unloadedPass(ctx, fx); err != nil {
			return oracleFailed(res, err), nil
		}
	} else {
		if err := warmUp(ctx, fx, w); err != nil {
			return result{}, err
		}
	}

	s0, err := fx.db.StorageStats()
	if err != nil {
		return result{}, err
	}
	var ph phase
	if w.serve {
		ph = serveLoop(ctx, fx, opts.seconds, 0, 0, pool, nil, nil)
	} else {
		ph = closedLoop(ctx, fx, opts.seconds, 0, nil, nil)
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	stats, err := fx.db.StorageStats()
	if err != nil {
		return result{}, err
	}
	user := fx.userBytes
	if w.serve {
		if disk, err = diskBytes(fx.dir); err != nil {
			return result{}, err
		}
		for i := 0; i < ph.nextPut; i++ {
			user += userBytes(written(pool, i))
		}
		fmt.Printf("# %s run: %d queries, %d puts, %d flushes, %d compactions, %d pinned snapshots at end, generator late p99 %.3f ms\n",
			w.name, ph.queries, ph.puts, stats.KV.Flushes-s0.KV.Flushes, stats.KV.Compactions-s0.KV.Compactions, stats.KV.PinnedSnapshots, lateP99(ph.late))
	}

	if err := checkOracle(ctx, fx.db, oracleSampleOps(fx.ops, opts.seed), datasetCorpus(w, opts.seed, ph.nextPut)); err != nil {
		return oracleFailed(res, err), nil
	}
	fmt.Printf("# %s oracle: %d sampled queries match brute force\n", w.name, min(oracleSample, len(fx.ops)))

	if l := lateP99(ph.late); l > lateVoidThreshold {
		return result{}, fmt.Errorf("load generator ran %.1f ms late at p99 (limit %.0f ms): run void", l, lateVoidThreshold)
	}

	q, rate := byTime(ph.qlat, ph.qat)
	rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups %.3f", len(setups), setups))
	rep.set("query_per_s", rate, "1/s", fmt.Sprintf("median over %d windows; %d queries in %.3f s in all", q.p50Windows, ph.queries, ph.elapsed.Seconds()))
	rep.set("query_p50_ms", q.p50, "ms", q.p50Note())
	qt := byQuery(ph.qlat, ph.qop)
	rep.set("query_tail_ms", qt.tail, "ms", qt.note())
	rep.set("disk_bytes_per_user_byte", ratio(float64(disk), float64(user)), "B/B", fmt.Sprintf("%d B on disk over %d user B", disk, user))
	rep.set("heap_live_mb", float64(mem.HeapAlloc)/(1<<20), "MiB", "after the run and a forced GC")
	rep.set("allocs_per_op", ratio(float64(ph.mallocs), float64(ph.queries+ph.puts)), "allocs/op",
		fmt.Sprintf("%d mallocs over %d ops in the measured window", ph.mallocs, ph.queries+ph.puts))
	if w.serve {
		p, _ := byTime(ph.plat, ph.pat)
		rep.show("put_p50_ms", p.p50, "ms", "open loop; "+p.p50Note())
		rep.show("put_tail_ms", p.tail, "ms", "open loop; "+p.tailNote())
	}
	rep.show("ops_failed_frac", ratio(float64(ph.failed), float64(ph.attempted)), "fraction",
		fmt.Sprintf("%d failed of %d attempted (errors, 429 sheds, deadline misses)", ph.failed, ph.attempted))
	res.Attempted, res.Failed = ph.attempted, ph.failed
	return res, nil
}

func oracleFailed(res result, err error) result {
	fmt.Printf("# ORACLE MISMATCH: %v\n", err)
	res.Correct = false
	res.Attempted = max(res.Attempted, 1)
	return res
}

func lateP99(late []float64) float64 {
	s := append([]float64(nil), late...)
	sort.Float64s(s)
	return percentile(s, 990)
}

// warmUp fills the caches before timing: the hot workloads read their whole
// table once through a covering range query, then every workload runs its
// own ops for a while.
func warmUp(ctx context.Context, fx *fixture, w *workload) error {
	if w.chunks == 1 {
		if _, _, err := fx.db.RangeSearchContext(ctx, geo.Rect{Max: geo.Point{X: 1, Y: 1}}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	d := time.Second
	if w.chunks > 1 {
		d = 3 * time.Second
	}
	closedLoop(ctx, fx, d, len(fx.ops)/2, nil, nil)
	return nil
}

// unloadedPass runs serve-rw's first queries embedded and then over the wire
// on one connection with nothing else running, checks that both answer
// alike, and returns wire minus embedded median latency. It doubles as the
// warm-up of the measured run.
func unloadedPass(ctx context.Context, fx *fixture) (float64, error) {
	n := min(unloadedQueries, len(fx.ops))
	emb := make([]float64, 0, n)
	wire := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		o := &fx.ops[i]
		t0 := time.Now()
		got, _, err := o.run(ctx, fx.db)
		emb = append(emb, ms(time.Since(t0)))
		if err != nil {
			return 0, fmt.Errorf("unloaded embedded query: %w", err)
		}
		t0 = time.Now()
		wm := map[string]float64{}
		_, err = fx.client.QueryStream(ctx, wireRequest(o), func(m server.WireMatch) error {
			wm[m.ID] = m.Distance
			return nil
		})
		wire = append(wire, ms(time.Since(t0)))
		if err != nil {
			return 0, fmt.Errorf("unloaded wire query: %w", err)
		}
		em := map[string]float64{}
		for _, m := range got {
			em[m.ID] = m.Distance
		}
		if err := sameAnswers(wm, em); err != nil {
			return 0, fmt.Errorf("wire answer differs from embedded for query %d: %w", i, err)
		}
	}
	return summarize(wire).p50 - summarize(emb).p50, nil
}
