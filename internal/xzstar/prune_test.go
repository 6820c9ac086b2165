package xzstar

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
)

func walkTrajectory(rng *rand.Rand, scale float64) []geo.Point {
	n := 3 + rng.Intn(30)
	pts := make([]geo.Point, n)
	x := rng.Float64()
	y := rng.Float64()
	for i := range pts {
		pts[i] = geo.Point{X: geo.Clamp01(x), Y: geo.Clamp01(y)}
		x += (rng.Float64() - 0.5) * scale
		y += (rng.Float64() - 0.5) * scale
	}
	return pts
}

func TestMinDistEE(t *testing.T) {
	qmbr := geo.Rect{Min: geo.Point{X: 0.4, Y: 0.4}, Max: geo.Point{X: 0.6, Y: 0.6}}
	// Element far to the right: the left edge of Q's MBR is the farthest.
	ee := geo.Rect{Min: geo.Point{X: 0.8, Y: 0.4}, Max: geo.Point{X: 0.9, Y: 0.6}}
	if got, want := MinDistEE(qmbr, ee), 0.4; math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v, want %v", got, want)
	}
	// Element covering the whole MBR: every edge touches it.
	big := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1, Y: 1}}
	if got := MinDistEE(qmbr, big); got != 0 {
		t.Errorf("covered MBR must give 0, got %v", got)
	}
	// Tiny element at the center of the MBR: every edge is 0.1 away at best.
	tiny := geo.Rect{Min: geo.Point{X: 0.5, Y: 0.5}, Max: geo.Point{X: 0.5, Y: 0.5}}
	if got := MinDistEE(qmbr, tiny); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("centered point element: got %v, want 0.1", got)
	}
}

// MinDistEE lower-bounds the Fréchet distance to any trajectory inside the
// element (the heart of Lemma 9).
func TestMinDistEELowerBoundsFrechet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 500; iter++ {
		q := walkTrajectory(rng, 0.05)
		qmbr := geo.MBRPoints(q)
		// A random element-like box and a trajectory inside it.
		ox, oy := rng.Float64()*0.8, rng.Float64()*0.8
		w := 0.02 + rng.Float64()*0.2
		ee := geo.Rect{Min: geo.Point{X: ox, Y: oy}, Max: geo.Point{X: ox + w, Y: oy + w}}
		tr := mustPoints(rng, 2+rng.Intn(10), ee)
		lower := MinDistEE(qmbr, ee)
		f := dist.DiscreteFrechet(q, tr)
		if lower > f+1e-9 {
			t.Fatalf("iter %d: MinDistEE %v exceeds Frechet %v", iter, lower, f)
		}
	}
}

func TestMinDistIS(t *testing.T) {
	s := SeqOf(0) // element [0,1)², quads of side 0.5
	quads := s.Quads()
	qmbr := geo.Rect{Min: geo.Point{X: 0.1, Y: 0.1}, Max: geo.Point{X: 0.2, Y: 0.2}}
	// Index space {d} alone would be far; {a,d} includes a which touches.
	d := MinDistIS(qmbr, &quads, QuadA|QuadD)
	if d != 0 {
		t.Errorf("index space containing quad a must be at distance 0, got %v", d)
	}
	dOnly := MinDistIS(qmbr, &quads, QuadD)
	if dOnly <= 0 {
		t.Errorf("far index space must have positive distance, got %v", dOnly)
	}
}

// MinDistIS lower-bounds Fréchet for trajectories whose points stay inside
// the union of the selected quads (Lemma 11).
func TestMinDistISLowerBoundsFrechet(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := SeqOf(1, 2)
	quads := s.Quads()
	for iter := 0; iter < 300; iter++ {
		q := walkTrajectory(rng, 0.05)
		qmbr := geo.MBRPoints(q)
		mask := codeToMask[1+rng.Intn(9)]
		// Build a trajectory with at least one point in every member quad and
		// all points inside the union.
		var tr []geo.Point
		for i := 0; i < 4; i++ {
			if mask&(1<<i) != 0 {
				tr = append(tr, mustPoints(rng, 1+rng.Intn(3), quads[i])...)
			}
		}
		lower := MinDistIS(qmbr, &quads, mask)
		f := dist.DiscreteFrechet(q, tr)
		if lower > f+1e-9 {
			t.Fatalf("iter %d: MinDistIS %v exceeds Frechet %v (mask %04b)", iter, lower, f, mask)
		}
	}
}

// TestISTableMatchesMinDistIS: the per-element table the planner reads must
// give MinDistIS bit for bit, for random elements at every resolution, every
// quad mask and random query MBRs (degenerate ones included), so the planned
// ranges and top-k space distances stay identical.
func TestISTableMatchesMinDistIS(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 2000; iter++ {
		s := SeqOf(byte(rng.Intn(4)))
		for l := rng.Intn(12); l > 0; l-- {
			s = s.Child(byte(rng.Intn(4)))
		}
		quads := s.Quads()
		x0, y0 := rng.Float64(), rng.Float64()
		w, h := rng.Float64()*0.3, rng.Float64()*0.3
		switch rng.Intn(4) {
		case 0:
			w, h = 0, 0 // a point
		case 1:
			w = 0 // a vertical segment
		}
		qmbr := geo.Rect{Min: geo.Point{X: x0, Y: y0}, Max: geo.Point{X: x0 + w, Y: y0 + h}}
		var table isTable
		table.fill(qmbr, &quads)
		for mask := QuadMask(0); mask < 16; mask++ {
			want := MinDistIS(qmbr, &quads, mask)
			if got := table.minDist(mask); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("iter %d mask %04b: table %v, MinDistIS %v", iter, mask, got, want)
			}
		}
	}
}

func TestResolutionBounds(t *testing.T) {
	ix := MustNew(16)
	q := NewQuery([]geo.Point{{X: 0.4, Y: 0.4}, {X: 0.42, Y: 0.42}}, nil)
	minR := ix.minResolution(q, 0.001)
	maxR := ix.maxResolution(q, 0.001)
	if minR < 1 || minR > 16 || maxR < 1 || maxR > 16 {
		t.Fatalf("resolutions out of range: %d %d", minR, maxR)
	}
	// A tiny query with a generous threshold can match trajectories at the
	// deepest resolution.
	if got := ix.maxResolution(q, 0.1); got != 16 {
		t.Errorf("maxR with huge eps = %d, want 16", got)
	}
	// A huge query cannot match tiny trajectories: maxR must be shallow.
	big := NewQuery([]geo.Point{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}}, nil)
	if got := ix.maxResolution(big, 0.001); got > 3 {
		t.Errorf("maxR for a huge query = %d, want small", got)
	}
}

// The central soundness property: GlobalPrune never loses a similar
// trajectory. Every trajectory whose Fréchet distance to Q is <= eps must
// have its assigned index value inside one of the returned ranges.
func TestGlobalPruneSound(t *testing.T) {
	ix := MustNew(16)
	rng := rand.New(rand.NewSource(7))
	const nTraj = 400
	type entry struct {
		pts   []geo.Point
		value int64
	}
	entries := make([]entry, nTraj)
	for i := range entries {
		scale := []float64{0.002, 0.01, 0.05, 0.2}[rng.Intn(4)]
		pts := walkTrajectory(rng, scale)
		entries[i] = entry{pts: pts, value: ix.Assign(pts).Value}
	}
	iters := 15
	if testing.Short() {
		iters = 4
	}
	for iter := 0; iter < iters; iter++ {
		qpts := walkTrajectory(rng, []float64{0.002, 0.01, 0.05}[rng.Intn(3)])
		q := NewQuery(qpts, nil)
		for _, eps := range []float64{0.001, 0.01, 0.05} {
			ranges, stats := ix.GlobalPrune(q, eps, 0)
			inRanges := func(v int64) bool {
				for _, r := range ranges {
					if r.Contains(v) {
						return true
					}
				}
				return false
			}
			for i, e := range entries {
				f := dist.DiscreteFrechet(qpts, e.pts)
				if f <= eps && !inRanges(e.value) {
					s, p, _ := ix.Decode(e.value)
					t.Fatalf("iter %d eps=%v: trajectory %d (frechet %v, space %v/%d, value %d) lost by global pruning; stats %+v",
						iter, eps, i, f, s, p, e.value, stats)
				}
			}
		}
	}
}

// Pruning effectiveness: for a localized query, the vast majority of far-away
// trajectories fall outside the candidate ranges.
func TestGlobalPruneEffective(t *testing.T) {
	ix := MustNew(16)
	rng := rand.New(rand.NewSource(8))
	// Trajectories spread over the whole plane.
	values := make([]int64, 2000)
	for i := range values {
		values[i] = ix.Assign(walkTrajectory(rng, 0.01)).Value
	}
	// A localized query.
	qpts := []geo.Point{{X: 0.31, Y: 0.31}, {X: 0.32, Y: 0.32}, {X: 0.33, Y: 0.31}}
	q := NewQuery(qpts, nil)
	ranges, _ := ix.GlobalPrune(q, 0.005, 0)
	hits := 0
	for _, v := range values {
		for _, r := range ranges {
			if r.Contains(v) {
				hits++
				break
			}
		}
	}
	if frac := float64(hits) / float64(len(values)); frac > 0.05 {
		t.Fatalf("global pruning kept %.1f%% of unrelated trajectories", frac*100)
	}
}

// The returned ranges are sorted, merged and non-overlapping.
func TestGlobalPruneRangesCanonical(t *testing.T) {
	ix := MustNew(16)
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 50; iter++ {
		q := NewQuery(walkTrajectory(rng, 0.05), nil)
		ranges, _ := ix.GlobalPrune(q, 0.01, 0)
		for i, r := range ranges {
			if r.Lo >= r.Hi {
				t.Fatalf("empty range %+v", r)
			}
			if i > 0 && ranges[i-1].Hi >= r.Lo {
				t.Fatalf("ranges not merged: %+v then %+v", ranges[i-1], r)
			}
		}
	}
}

// With a tiny budget the planner truncates to subtree ranges but stays sound.
func TestGlobalPruneBudgetTruncation(t *testing.T) {
	ix := MustNew(16)
	rng := rand.New(rand.NewSource(10))
	qpts := walkTrajectory(rng, 0.02)
	q := NewQuery(qpts, nil)
	full, _ := ix.GlobalPrune(q, 0.01, 0)
	small, stats := ix.GlobalPrune(q, 0.01, 8)
	if !stats.Truncated {
		t.Fatal("budget 8 must truncate")
	}
	// Everything covered by the full plan is covered by the truncated one.
	for _, r := range full {
		for v := r.Lo; v < r.Hi; v += (r.Hi - r.Lo + 9) / 10 {
			covered := false
			for _, s := range small {
				if s.Contains(v) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("value %d in full plan missing from truncated plan", v)
			}
		}
	}
}

func TestCandidateSpaces(t *testing.T) {
	ix := MustNew(16)
	qpts := []geo.Point{{X: 0.1, Y: 0.1}, {X: 0.15, Y: 0.12}}
	q := NewQuery(qpts, nil)
	s := ix.SEE(geo.MBRPoints(qpts))
	// Unbounded: all codes of the element come back ranked.
	all := ix.CandidateSpaces(s, q, math.Inf(1))
	wantCount := 9
	if s.Len() == ix.maxRes {
		wantCount = 10
	}
	if len(all) != wantCount {
		t.Fatalf("unbounded candidates = %d, want %d", len(all), wantCount)
	}
	for _, c := range all {
		if c.Dist < 0 {
			t.Fatalf("negative distance %v", c.Dist)
		}
	}
	// Thresholded candidates are a subset of the unbounded ones.
	some := ix.CandidateSpaces(s, q, 0.01)
	if len(some) > len(all) {
		t.Fatal("threshold must not add candidates")
	}
}

func TestRootSeqs(t *testing.T) {
	rs := RootSeqs()
	if len(rs) != 4 {
		t.Fatalf("got %d roots", len(rs))
	}
	union := geo.EmptyRect()
	for _, s := range rs {
		if s.Len() != 1 {
			t.Fatalf("root %v not at resolution 1", s)
		}
		union = union.Union(s.Cell())
	}
	if union != geo.World {
		t.Fatalf("root cells must tile the world, got %v", union)
	}
}

func BenchmarkAssign(b *testing.B) {
	ix := MustNew(16)
	rng := rand.New(rand.NewSource(11))
	pts := walkTrajectory(rng, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Assign(pts)
	}
}

func BenchmarkGlobalPrune(b *testing.B) {
	ix := MustNew(16)
	rng := rand.New(rand.NewSource(12))
	q := NewQuery(walkTrajectory(rng, 0.02), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.GlobalPrune(q, 0.01, 0)
	}
}
