package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	trass "repro"
	"repro/internal/dist"
	"repro/internal/traj"
)

// The oracle answers a fixed, seeded sample of a workload's queries by brute
// force over the regenerated dataset and compares the engine's answers.
// Stored points are quantized by the row codec, so the corpus passes every
// generated trajectory through the same codec before comparing distances.

// checker accumulates the brute-force answer of one query while the corpus
// streams past, then judges the engine's answer.
type checker interface {
	visit(t *traj.Trajectory)
	verify(got []trass.Match) error
}

// corpus yields every stored trajectory, quantized as stored.
type corpus func(fn func(t *traj.Trajectory)) error

func quantized(t *traj.Trajectory) (*traj.Trajectory, error) {
	pts, err := traj.DecodePoints(traj.EncodePoints(t.Points))
	if err != nil {
		return nil, fmt.Errorf("quantize %s: %w", t.ID, err)
	}
	return &traj.Trajectory{ID: t.ID, Points: pts}, nil
}

// datasetCorpus regenerates the workload's dataset from the seed, plus the
// first nWritten trajectories the writers put.
func datasetCorpus(w *workload, seed int64, nWritten int) corpus {
	return func(fn func(*traj.Trajectory)) error {
		for c := 0; c < w.chunks; c++ {
			for _, t := range w.chunk(seed, c) {
				qt, err := quantized(t)
				if err != nil {
					return err
				}
				fn(qt)
			}
		}
		if nWritten > 0 {
			pool := writePool(seed)
			for i := 0; i < nWritten; i++ {
				qt, err := quantized(written(pool, i))
				if err != nil {
					return err
				}
				fn(qt)
			}
		}
		return nil
	}
}

// oracleSampleOps is the fixed seeded sample of ops the oracle checks.
func oracleSampleOps(ops []op, seed int64) []op {
	rng := rand.New(rand.NewSource(seed + 2))
	n := min(oracleSample, len(ops))
	out := make([]op, n)
	for i, j := range rng.Perm(len(ops))[:n] {
		out[i] = ops[j]
	}
	return out
}

// checkOracle reruns the sampled ops on db (outside any timed window) and
// compares each answer with brute force over the corpus.
func checkOracle(ctx context.Context, db *trass.DB, sample []op, corp corpus) error {
	answers := make([][]trass.Match, len(sample))
	checkers := make([]checker, len(sample))
	for i := range sample {
		o := &sample[i]
		ms, _, err := o.run(ctx, db)
		if err != nil {
			return fmt.Errorf("oracle rerun of %s: %w", o.kind, err)
		}
		answers[i] = ms
		checkers[i] = newChecker(o, ms)
	}
	if err := corp(func(t *traj.Trajectory) {
		for _, c := range checkers {
			c.visit(t)
		}
	}); err != nil {
		return err
	}
	for i, c := range checkers {
		if err := c.verify(answers[i]); err != nil {
			return fmt.Errorf("oracle: %s query %d of sample: %w", sample[i].kind, i, err)
		}
	}
	return nil
}

func newChecker(o *op, got []trass.Match) checker {
	within, full := dist.WithinFor(dist.Frechet), dist.For(dist.Frechet)
	switch o.kind {
	case kindThreshold:
		return &thresholdCheck{q: o.q, eps: o.eps, within: within, full: full, want: map[string]float64{}}
	case kindTopK:
		return newRankCheck(o.k, got, func(t *traj.Trajectory, bound float64) (float64, bool) {
			if !within(o.q.Points, t.Points, bound) {
				return 0, false
			}
			return full(o.q.Points, t.Points), true
		})
	case kindKNN:
		return newRankCheck(o.k, got, func(t *traj.Trajectory, _ float64) (float64, bool) {
			best := math.Inf(1)
			for _, v := range t.Points {
				best = min(best, o.p.Dist(v))
			}
			return best, true
		})
	default:
		return &rangeCheck{o: o, want: map[string]bool{}}
	}
}

// thresholdCheck: the answer is exactly the trajectories within eps, each
// with its exact distance.
type thresholdCheck struct {
	q      *traj.Trajectory
	eps    float64
	within dist.WithinFunc
	full   dist.Func
	want   map[string]float64
}

func (c *thresholdCheck) visit(t *traj.Trajectory) {
	if c.within(c.q.Points, t.Points, c.eps) {
		c.want[t.ID] = c.full(c.q.Points, t.Points)
	}
}

func (c *thresholdCheck) verify(got []trass.Match) error {
	if len(got) != len(c.want) {
		return fmt.Errorf("%d matches, brute force finds %d", len(got), len(c.want))
	}
	seen := map[string]bool{}
	for _, m := range got {
		d, ok := c.want[m.ID]
		if !ok || seen[m.ID] {
			return fmt.Errorf("unexpected or repeated match %s", m.ID)
		}
		if d != m.Distance {
			return fmt.Errorf("match %s at distance %v, brute force %v", m.ID, m.Distance, d)
		}
		seen[m.ID] = true
	}
	return nil
}

// rankCheck serves top-k and kNN: the answer's distance multiset must equal
// the k smallest brute-force distances (so ties may pick any member), and
// every returned id must carry its own exact distance. Only trajectories
// within the answer's k-th distance can belong to the true top k, so the
// distance function may skip the rest (bound).
type rankCheck struct {
	k     int
	bound float64
	ids   map[string]float64 // answer id -> reported distance
	exact map[string]float64 // answer id -> brute-force distance
	dists []float64
	n     int
	dist  func(t *traj.Trajectory, bound float64) (float64, bool)
}

func newRankCheck(k int, got []trass.Match, d func(*traj.Trajectory, float64) (float64, bool)) *rankCheck {
	c := &rankCheck{k: k, ids: map[string]float64{}, exact: map[string]float64{}, dist: d}
	for _, m := range got {
		c.ids[m.ID] = m.Distance
		c.bound = max(c.bound, m.Distance)
	}
	return c
}

func (c *rankCheck) visit(t *traj.Trajectory) {
	c.n++
	_, inAnswer := c.ids[t.ID]
	bound := c.bound
	if inAnswer {
		bound = math.Inf(1) // need the exact value whatever it is
	}
	d, ok := c.dist(t, bound)
	if !ok {
		return
	}
	if inAnswer {
		c.exact[t.ID] = d
	}
	if d <= c.bound {
		c.dists = append(c.dists, d)
	}
}

func (c *rankCheck) verify(got []trass.Match) error {
	want := min(c.k, c.n)
	if len(got) != want || len(c.ids) != len(got) {
		return fmt.Errorf("%d matches (%d distinct), want %d", len(got), len(c.ids), want)
	}
	for id, d := range c.ids {
		e, ok := c.exact[id]
		if !ok {
			return fmt.Errorf("match %s is not stored", id)
		}
		if e != d {
			return fmt.Errorf("match %s at distance %v, brute force %v", id, d, e)
		}
	}
	sort.Float64s(c.dists)
	if len(c.dists) < want {
		return fmt.Errorf("brute force finds only %d within the answer's k-th distance", len(c.dists))
	}
	gd := make([]float64, len(got))
	for i, m := range got {
		gd[i] = m.Distance
	}
	sort.Float64s(gd)
	for i := range gd {
		if gd[i] != c.dists[i] {
			return fmt.Errorf("rank %d: distance %v, brute force %v", i+1, gd[i], c.dists[i])
		}
	}
	return nil
}

// rangeCheck: the answer is exactly the trajectories with a point inside the
// window.
type rangeCheck struct {
	o    *op
	want map[string]bool
}

func (c *rangeCheck) visit(t *traj.Trajectory) {
	if !c.o.window.Intersects(t.MBR()) {
		return
	}
	for _, p := range t.Points {
		if c.o.window.ContainsPoint(p) {
			c.want[t.ID] = true
			return
		}
	}
}

func (c *rangeCheck) verify(got []trass.Match) error {
	if len(got) != len(c.want) {
		return fmt.Errorf("%d matches, brute force finds %d", len(got), len(c.want))
	}
	seen := map[string]bool{}
	for _, m := range got {
		if !c.want[m.ID] || seen[m.ID] {
			return fmt.Errorf("unexpected or repeated match %s", m.ID)
		}
		seen[m.ID] = true
	}
	return nil
}

// sameAnswers compares two answers to one query as (id, distance) sets.
func sameAnswers(a, b map[string]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d matches vs %d", len(a), len(b))
	}
	for id, d := range a {
		e, ok := b[id]
		if !ok {
			return fmt.Errorf("match %s missing", id)
		}
		if e != d {
			return fmt.Errorf("match %s at %v vs %v", id, d, e)
		}
	}
	return nil
}
