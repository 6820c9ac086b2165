package query

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/traj"
)

// storedRow encodes tr the way Store.Put does, features included.
func storedRow(tr *traj.Trajectory, dpTolerance float64) []byte {
	return traj.EncodeRecord(&traj.Record{
		ID: tr.ID, Points: tr.Points, Times: tr.Times,
		Features: traj.ComputeFeatures(tr, dpTolerance),
	})
}

// TestPushDownFiltersDoNotAllocate gates the decode-once rule: the range
// filter and the Lemma 12-14 filter read a stored multi-point row in place,
// with and without a time window, and allocate nothing per row.
func TestPushDownFiltersDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := walk(rng, "row", 120, 0.01)
	times := make([]int64, base.Len())
	for i := range times {
		times[i] = 1_700_000_000 + int64(10*i)
	}
	stored := traj.NewTimed(base.ID, base.Points, times)
	// At the store's default DP tolerance this wandering row has several
	// boxes and representative points, so every lemma walks real features.
	const tol = 0.01
	value := storedRow(stored, tol)
	if f := traj.ComputeFeatures(stored, tol); len(f.Boxes) < 3 || len(f.Boxes) > filterScratch {
		t.Fatalf("fixture row has %d boxes; want 3..%d", len(f.Boxes), filterScratch)
	}

	q := nearWalk(rng, stored, "q", 0.0005)
	fq := traj.ComputeFeatures(q, tol)
	qg := &queryGeom{points: q.Points, features: fq, rep: fq.RepPoints(q)}
	mbr := stored.MBR()
	// A window over the row's last points only: the range walk runs to the end.
	tail := geo.MBRPoints(stored.Points[len(stored.Points)-3:])

	for _, w := range []TimeWindow{{}, {Start: times[0], End: times[len(times)-1]}} {
		filters := map[string]struct {
			f    rowFilter
			want bool
		}{
			"range":          {rangeFilter(tail), true},
			"range-miss":     {rangeFilter(geo.Rect{Min: geo.Point{X: mbr.Max.X + 0.1, Y: mbr.Max.Y + 0.1}, Max: geo.Point{X: mbr.Max.X + 0.2, Y: mbr.Max.Y + 0.2}}), false},
			"lemmas-frechet": {serverFilter(qg, dist.Frechet, 0.01), true},
			"lemmas-hausd":   {serverFilter(qg, dist.Hausdorff, 0.01), true},
			"endpoint-only":  {endpointOnlyFilter(qg, dist.Frechet, 0.01), true},
		}
		for name, c := range filters {
			filter := pushDown(w, c.f)
			if got := filter(nil, value); got != c.want {
				t.Fatalf("%s, window %+v: filter = %v, want %v", name, w, got, c.want)
			}
			if n := testing.AllocsPerRun(100, func() { filter(nil, value) }); n != 0 {
				t.Errorf("%s, window %+v: %v allocs per row, want 0", name, w, n)
			}
		}
	}
}
