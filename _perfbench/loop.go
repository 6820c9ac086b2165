package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	trass "repro"
	"repro/internal/server"
	"repro/internal/store"
)

// phase is what one timed window measured.
type phase struct {
	qlat, plat, late  []float64 // ms: query and put latency, generator lateness
	qat, pat          []float64 // s: each latency sample's offset into the run (puts: due time)
	qop               []int     // each query sample's index into the op list
	attempted, failed int64     // every operation, queries and puts
	queries, puts     int64     // completed
	shed              int64     // 429 responses
	matches, bytes    int64     // wire matches and response bytes
	elapsed           time.Duration
	mallocs           uint64
	nextOp            int // next index into the op list
	nextPut           int // next writer id
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// closedLoop runs ops back to back from one client for d, starting at op
// index from. With tr set, every op is traced and replayed layer by layer.
func closedLoop(ctx context.Context, fx *fixture, d time.Duration, from int, tr *tracer, rp *replayer) phase {
	ph := phase{nextOp: from}
	m0 := mallocs()
	start := time.Now()
	for time.Since(start) < d {
		o := &fx.ops[ph.nextOp%len(fx.ops)]
		ph.nextOp++
		ph.attempted++
		var trace int64
		var s0 trass.StorageStats
		if tr != nil {
			trace = tr.newTrace()
			s0, _ = fx.db.StorageStats()
		}
		t0 := time.Now()
		got, st, err := o.run(ctx, fx.db)
		t1 := time.Now()
		if err != nil {
			ph.failed++
			continue
		}
		ph.queries++
		ph.qlat = append(ph.qlat, ms(t1.Sub(t0)))
		ph.qat = append(ph.qat, t1.Sub(start).Seconds())
		ph.qop = append(ph.qop, (ph.nextOp-1)%len(fx.ops))
		if tr != nil {
			s1, _ := fx.db.StorageStats()
			tr.record(trace, 0, "op."+o.kind.String(), t0, t1, queryAttrs(st, s1.KV.Sub(s0.KV)))
			rp.replay(ctx, tr, trace, o, got)
		}
	}
	ph.elapsed = time.Since(start)
	ph.mallocs = mallocs() - m0
	return ph
}

// putProbe times closed-loop puts of fresh trajectories after an embedded
// run, so every workload reports the commit path's latency. It runs
// putProbeRounds rounds, each after a forced GC, and returns each round's
// latencies (ms).
func putProbe(fx *fixture, seed int64) (rounds [][]float64, attempted, failed int64) {
	pool := writePool(seed)
	next := 0
	for r := 0; r < putProbeRounds; r++ {
		runtime.GC()
		lat := make([]float64, 0, putProbeRound)
		for i := 0; i < putProbeRound; i++ {
			t := written(pool, next)
			next++
			attempted++
			t0 := time.Now()
			if err := fx.db.Put(t); err != nil {
				failed++
				continue
			}
			lat = append(lat, ms(time.Since(t0)))
		}
		rounds = append(rounds, lat)
	}
	return rounds, attempted, failed
}

// serveLoop runs serve-rw's traffic for d: one HTTP connection sends
// streamed threshold queries back to back while one writer puts fresh
// trajectories at servePutRate on a fixed schedule. A put that falls due
// while the writer still waits on the previous one is timed from its due
// time, so a stall is charged to every put queued behind it. One that falls
// due while the writer is idle is timed from when it was issued: how late
// the generator's own wake-up ran is the generator's lateness, reported on
// its own, not the system's latency.
func serveLoop(ctx context.Context, fx *fixture, d time.Duration, from, putFrom int, pool []*trass.Trajectory, tr *tracer, rp *replayer) phase {
	var qp, wp phase
	m0 := mallocs()
	bytes0 := fx.wire.n.Load()
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		qp = serveQueries(ctx, fx, start, end, from, tr, rp)
	}()
	go func() {
		defer wg.Done()
		wp = servePuts(fx, start, end, putFrom, pool, tr)
	}()
	wg.Wait()
	ph := qp
	ph.plat, ph.pat, ph.puts, ph.nextPut = wp.plat, wp.pat, wp.puts, wp.nextPut
	ph.late = append(ph.late, wp.late...)
	ph.attempted += wp.attempted
	ph.failed += wp.failed
	ph.elapsed = time.Since(start)
	ph.mallocs = mallocs() - m0
	ph.bytes = fx.wire.n.Load() - bytes0
	return ph
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// serveQueries sends streamed threshold queries back to back on one
// connection until end: the reader is a closed loop, so the CPU never idles
// between queries and each latency runs from issue to the stream's footer.
func serveQueries(ctx context.Context, fx *fixture, start, end time.Time, from int, tr *tracer, rp *replayer) phase {
	ph := phase{nextOp: from}
	sleepUntil(start)
	for time.Now().Before(end) {
		issued := time.Now()
		o := &fx.ops[ph.nextOp%len(fx.ops)]
		ph.nextOp++
		ph.attempted++
		var matches []trass.Match
		var s0 trass.StorageStats
		if tr != nil {
			s0, _ = fx.db.StorageStats()
		}
		ws, err := fx.client.QueryStream(ctx, wireRequest(o), func(m server.WireMatch) error {
			matches = append(matches, trass.Match{ID: m.ID, Distance: m.Distance})
			return nil
		})
		done := time.Now()
		if err != nil {
			ph.failed++
			var se *server.StatusError
			if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
				ph.shed++
			}
			continue
		}
		ph.queries++
		ph.matches += int64(len(matches))
		ph.qlat = append(ph.qlat, ms(done.Sub(issued)))
		ph.qat = append(ph.qat, done.Sub(start).Seconds())
		ph.qop = append(ph.qop, (ph.nextOp-1)%len(fx.ops))
		if tr != nil {
			trace := tr.newTrace()
			s1, _ := fx.db.StorageStats()
			tr.record(trace, 0, "op.wire."+o.kind.String(), issued, done, wireAttrs(ws, len(matches), s1.KV.Sub(s0.KV)))
			rp.replay(ctx, tr, trace, o, matches)
		}
	}
	return ph
}

func servePuts(fx *fixture, start, end time.Time, putFrom int, pool []*trass.Trajectory, tr *tracer) phase {
	ph := phase{nextPut: putFrom}
	period := time.Duration(float64(time.Second) / servePutRate)
	free := start
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) {
			break
		}
		sleepUntil(due)
		t0 := time.Now()
		from := due
		if !free.After(due) {
			ph.late = append(ph.late, ms(t0.Sub(due)))
			from = t0
		}
		t := written(pool, ph.nextPut)
		ph.nextPut++
		ph.attempted++
		err := fx.db.Put(t)
		free = time.Now()
		if err != nil {
			ph.failed++
			continue
		}
		ph.puts++
		ph.plat = append(ph.plat, ms(free.Sub(from)))
		ph.pat = append(ph.pat, due.Sub(start).Seconds())
		if tr != nil {
			tr.record(tr.newTrace(), 0, "op.put", t0, free, nil)
		}
	}
	return ph
}

func wireRequest(o *op) server.QueryRequest {
	pts := make([][2]float64, len(o.q.Points))
	for i, p := range o.q.Points {
		pts[i] = [2]float64{p.X, p.Y}
	}
	return server.QueryRequest{Kind: server.KindThreshold, Points: pts, Eps: o.eps, DeadlineMS: serveDeadlineMS}
}

// gauges samples the kv MVCC gauges until stopped, keeping their maxima.
type gauges struct {
	stop             chan struct{}
	done             chan struct{}
	frozen, obsolete int64
}

func sampleGauges(db *trass.DB, every time.Duration) *gauges {
	g := &gauges{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if s, err := db.StorageStats(); err == nil {
				g.frozen = max(g.frozen, s.KV.FrozenMemtables)
				g.obsolete = max(g.obsolete, s.KV.ObsoleteTables)
			}
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

// halt stops the sampler and waits for it to exit.
func (g *gauges) halt() {
	close(g.stop)
	<-g.done
}

// countingTransport counts response body bytes: the wire cost of answers.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// openReplica opens a second store on a copy of the loaded database; the
// traced run replays layer calls against it.
func openReplica(src, dst string) (*store.Store, error) {
	if err := copyTree(src, dst); err != nil {
		return nil, err
	}
	return store.Open(store.Config{Dir: dst})
}
