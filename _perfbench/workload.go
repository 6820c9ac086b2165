package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	trass "repro"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/server"
	"repro/internal/traj"
)

// Workload sizes and rates. They are part of the benchmark's definition:
// changing one changes every baseline.
const (
	hotTrajectories    = 20_000 // threshold-hot, topk-hot, serve-rw
	largeChunks        = 30     // range-large: 30 seeded chunks ...
	largeChunkSize     = 10_000 // ... of 10k trajectories = 300k
	loadBatch          = 1000   // trajectories per PutBatch during set-up
	writePoolSize      = 1024   // distinct shapes the writers cycle through
	windowAreaQuantile = 0.9    // range-large windows: stored MBRs up to this area quantile
	servePutRate       = 25.0   // serve-rw offered puts per second
	serveDeadlineMS    = 2000   // per-request deadline sent with each query
	putProbeRounds     = 10     // closed-loop put rounds after an embedded run ...
	putProbeRound      = 2000   // ... of this many puts each
	oracleSample       = 24     // queries per run checked by brute force
	unloadedQueries    = 200    // serve-rw wire-vs-embedded comparison pass
	regionCount        = 8      // trass default shards, one region each
	regionCacheMiB     = 8      // kv default block cache per region
	lateVoidThreshold  = 100.0  // ms: a generator this late at p99 voids the run
)

// Query lists are short enough that a run repeats every query several
// times; the threshold and top-k lists ask each trajectory three ways.
const (
	thresholdTrajectories = 400 // threshold-hot: 1200 queries
	topkTrajectories      = 100 // topk-hot: 300 queries
	serveTrajectories     = 200 // serve-rw: 600 queries
	rangeListSize         = 100 // range-large: 100 windows
)

var thresholdEpsDeg = []float64{0.005, 0.01, 0.02}

type opKind int

const (
	kindThreshold opKind = iota
	kindTopK
	kindKNN
	kindRange
)

func (k opKind) String() string {
	return [...]string{"threshold", "topk", "knn", "range"}[k]
}

// op is one query of a workload's fixed, seeded query list.
type op struct {
	kind   opKind
	q      *traj.Trajectory // threshold, topk
	eps    float64          // threshold (normalized plane units)
	k      int              // topk, knn
	p      geo.Point        // knn
	window geo.Rect         // range
}

func (o *op) run(ctx context.Context, db *trass.DB) ([]trass.Match, *trass.QueryStats, error) {
	switch o.kind {
	case kindThreshold:
		return db.ThresholdSearchContext(ctx, o.q, o.eps)
	case kindTopK:
		return db.TopKSearchContext(ctx, o.q, o.k)
	case kindKNN:
		return db.NearestSearchContext(ctx, o.p, o.k)
	default:
		return db.RangeSearchContext(ctx, o.window)
	}
}

// workload names one of the benchmark's traffic mixes.
type workload struct {
	name      string
	chunks    int
	chunkSize int
	setupReps int  // set-ups per run; setup_s is their median
	serve     bool // queries over HTTP beside an open-loop writer
	why       string
	ops       func(qs querySource) []op
}

var workloads = []*workload{
	{
		name: "threshold-hot", chunks: 1, chunkSize: hotTrajectories, setupReps: 5,
		why: "20k taxi trajectories (~10 MB) inside the 64 MiB block cache; threshold queries with ~1 match, so the fixed per-query cost (planning, per-range scan set-up) dominates",
		ops: thresholdOps(thresholdTrajectories),
	},
	{
		name: "topk-hot", chunks: 1, chunkSize: hotTrajectories, setupReps: 5,
		why: "same 20k table; top-k (k=10, 50) and point kNN make ~750-1500 ordered region RPCs and refine hundreds of candidates, so cluster dispatch and dist refine dominate",
		ops: func(src querySource) []op {
			var out []op
			for _, q := range src.byExtent(topkTrajectories) {
				out = append(out,
					op{kind: kindTopK, q: q, k: 10},
					op{kind: kindTopK, q: q, k: 50},
					op{kind: kindKNN, p: q.Points[len(q.Points)/2], k: 10})
			}
			return out
		},
	},
	{
		name: "range-large", chunks: largeChunks, chunkSize: largeChunkSize, setupReps: 2,
		why: "300k trajectories (~150 MB on disk, 2.3x the 64 MiB block cache) under stored-MBR windows: the only workload where kv block reads, row decode and filter bytes dominate",
		ops: func(src querySource) []op {
			windows := src.windows(rangeListSize)
			out := make([]op, len(windows))
			for i, w := range windows {
				out[i] = op{kind: kindRange, window: w}
			}
			return out
		},
	},
	{
		name: "serve-rw", chunks: 1, chunkSize: hotTrajectories, setupReps: 5, serve: true,
		why: "20k table behind the HTTP server: streamed threshold queries back to back on 1 connection beside 25 puts/s; the only workload on wire encode, commit, flush and compaction",
		ops: thresholdOps(serveTrajectories),
	},
}

// thresholdOps asks each of n stored trajectories at every ε in turn, so
// every size meets every ε whatever the seed.
func thresholdOps(n int) func(querySource) []op {
	return func(src querySource) []op {
		var out []op
		for _, q := range src.byExtent(n) {
			for _, eps := range thresholdEpsDeg {
				out = append(out, op{kind: kindThreshold, q: q, eps: gen.DegreesToNorm(eps)})
			}
		}
		return out
	}
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// chunk generates chunk c of the workload's dataset. Multi-chunk datasets
// prefix ids with the chunk so they stay unique.
func (w *workload) chunk(seed int64, c int) []*traj.Trajectory {
	ts := gen.TDrive(gen.TDriveOptions{Seed: seed*1000 + int64(c), N: w.chunkSize})
	if w.chunks > 1 {
		for _, t := range ts {
			t.ID = fmt.Sprintf("c%02d-%s", c, t.ID)
		}
	}
	return ts
}

// writePool is the set of shapes the writers put under fresh ids.
func writePool(seed int64) []*traj.Trajectory {
	return gen.TDrive(gen.TDriveOptions{Seed: seed*1000 + 999, N: writePoolSize})
}

// written is the i-th trajectory a writer puts.
func written(pool []*traj.Trajectory, i int) *traj.Trajectory {
	return &traj.Trajectory{ID: fmt.Sprintf("w%07d", i), Points: pool[i%len(pool)].Points}
}

// userBytes is what a trajectory carries before indexing: 16 B per point,
// its id and 8 B per timestamp.
func userBytes(t *traj.Trajectory) int64 {
	return int64(16*len(t.Points) + len(t.ID) + 8*len(t.Times))
}

// querySource draws a workload's queries from its stored data. Draws are
// stratified: the candidates are sorted by size and picked at evenly spaced
// quantiles, so every seed's query list spans the same range of sizes and
// the medians it yields move little from seed to seed.
type querySource struct {
	seed  int64
	trajs []*traj.Trajectory // the first chunk's trajectories
	mbrs  []geo.Rect         // the MBR of every stored trajectory
}

// byExtent draws n trajectories of the first chunk, stratified by the
// semi-perimeter of their MBR.
func (s querySource) byExtent(n int) []*traj.Trajectory {
	idx := stratified(len(s.trajs), n, s.seed, 1, func(i int) float64 {
		r := s.mbrs[i]
		return r.Width() + r.Height()
	})
	out := make([]*traj.Trajectory, len(idx))
	for i, j := range idx {
		out[i] = s.trajs[j]
	}
	return out
}

// windows draws n stored trajectories' MBRs, stratified by area up to the
// windowAreaQuantile: the largest MBRs span most of the city, and a run of
// them would leave too few queries for a p90 with ten samples beyond it.
func (s querySource) windows(n int) []geo.Rect {
	idx := stratified(len(s.mbrs), n, s.seed, windowAreaQuantile, func(i int) float64 { return s.mbrs[i].Area() })
	out := make([]geo.Rect, len(idx))
	for i, j := range idx {
		out[i] = s.mbrs[j]
	}
	return out
}

// stratified returns n of the indices 0..count-1: sorted by key and cut to
// the lowest upto share, the midpoints of n equal slices, in a seeded
// low-discrepancy order.
func stratified(count, n int, seed int64, upto float64, key func(i int) float64) []int {
	idx := make([]int, count)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return key(idx[a]) < key(idx[b]) })
	count = max(1, int(upto*float64(count)))
	n = min(n, count)
	out := make([]int, n)
	for i := range out {
		out[i] = idx[(2*i+1)*count/(2*n)]
	}
	// Golden-ratio order from a seeded start: every prefix of the list, and
	// so every run however far it gets, covers the sizes evenly.
	phase := rand.New(rand.NewSource(seed)).Float64()
	pos := func(i int) float64 { return math.Mod(phase+float64(i)*0.6180339887498949, 1) }
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pos(order[a]) < pos(order[b]) })
	shuffled := make([]int, n)
	for i, j := range order {
		shuffled[i] = out[j]
	}
	return shuffled
}

// fixture is one loaded database plus, for serve-rw, its HTTP front end.
type fixture struct {
	dir       string
	db        *trass.DB
	ops       []op
	rows      int64
	userBytes int64

	httpSrv *http.Server
	served  chan error
	client  *server.Client
	wire    *countingTransport
}

// setup generates the dataset, loads it, flushes and compacts and, for
// serve-rw, starts the server.
func setup(ctx context.Context, w *workload, seed int64, dir string) (*fixture, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	db, err := trass.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	fx := &fixture{dir: dir, db: db}
	// Only the MBRs outlive their chunk, so range-large's 300k
	// trajectories never sit in memory at once.
	src := querySource{seed: seed + 1, mbrs: make([]geo.Rect, 0, w.chunks*w.chunkSize)}
	loaded := 0
	for c := 0; c < w.chunks; c++ {
		ts := w.chunk(seed, c)
		if c == 0 {
			src.trajs = ts
		}
		for _, t := range ts {
			src.mbrs = append(src.mbrs, t.MBR())
			fx.userBytes += userBytes(t)
		}
		for i := 0; i < len(ts); i += loadBatch {
			b := ts[i:min(i+loadBatch, len(ts))]
			if err := db.PutBatch(b); err != nil {
				_ = fx.close()
				return nil, fmt.Errorf("load: %w", err)
			}
			loaded += len(b)
		}
	}
	fx.rows = int64(loaded)
	if err := db.Flush(); err != nil {
		_ = fx.close()
		return nil, fmt.Errorf("flush: %w", err)
	}
	if err := db.Compact(); err != nil {
		_ = fx.close()
		return nil, fmt.Errorf("compact: %w", err)
	}
	fx.ops = w.ops(src)
	if w.serve {
		if err := fx.startServer(ctx); err != nil {
			_ = fx.close()
			return nil, err
		}
	}
	return fx, nil
}

// startServer serves the database on a loopback listener and waits until the
// server answers its health probe.
func (fx *fixture) startServer(ctx context.Context) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	fx.httpSrv = &http.Server{Handler: server.New(fx.db, server.Config{}).Handler()}
	fx.served = make(chan error, 1)
	go func() { fx.served <- fx.httpSrv.Serve(lis) }()
	fx.wire = &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2}}
	fx.client = server.NewClient(lis.Addr().String())
	fx.client.HTTP = &http.Client{Transport: fx.wire}
	return fx.client.Healthz(ctx)
}

// close stops the server (if any) and closes the database.
func (fx *fixture) close() error {
	var first error
	if fx.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := fx.httpSrv.Shutdown(ctx); err != nil {
			first = err
		}
		if err := <-fx.served; err != nil && err != http.ErrServerClosed && first == nil {
			first = err
		}
		fx.wire.base.(*http.Transport).CloseIdleConnections()
		fx.httpSrv = nil
	}
	if fx.db != nil {
		if err := fx.db.Close(); err != nil && first == nil {
			first = err
		}
		fx.db = nil
	}
	return first
}

// diskBytes sums the sizes of every file under dir.
func diskBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			// Files vanish while compaction runs; they no longer count.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}
