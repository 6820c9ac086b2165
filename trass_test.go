package trass

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
)

func openTestDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db := openTestDB(t)
	data := gen.TDrive(gen.TDriveOptions{Seed: 1, N: 300})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	if db.Count() != 300 {
		t.Fatalf("count = %d", db.Count())
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	q := data[42]
	eps := gen.DegreesToNorm(0.01)

	matches, stats, err := db.Collect(context.Background(), Query{Kind: KindThreshold, Traj: q, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	// The query itself is stored, so there is at least one match at 0.
	foundSelf := false
	for _, m := range matches {
		if m.ID == q.ID {
			foundSelf = true
			if m.Distance > 1e-7 {
				t.Fatalf("self distance %v", m.Distance)
			}
		}
	}
	if !foundSelf {
		t.Fatal("query trajectory not found by its own threshold search")
	}
	if stats.Results != len(matches) {
		t.Fatal("stats mismatch")
	}

	top, _, err := db.Collect(context.Background(), Query{Kind: KindTopK, Traj: q, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("top-k returned %d", len(top))
	}
	if top[0].ID != q.ID || top[0].Distance > 1e-7 {
		t.Fatalf("nearest must be the query itself, got %+v", top[0])
	}
	if !sort.SliceIsSorted(top, func(i, j int) bool { return top[i].Distance < top[j].Distance }) {
		t.Fatal("top-k not ascending")
	}
}

func TestThresholdMatchesBruteOnPublicAPI(t *testing.T) {
	for _, m := range []Measure{Frechet, Hausdorff, DTW} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			db := openTestDB(t, WithMeasure(m), WithShards(4))
			data := gen.TDrive(gen.TDriveOptions{Seed: 2, N: 200})
			if err := db.PutBatch(data); err != nil {
				t.Fatal(err)
			}
			q := data[7]
			eps := gen.DegreesToNorm(0.02)
			if m == DTW {
				eps *= 20
			}
			got, _, err := db.Collect(context.Background(), Query{Kind: KindThreshold, Traj: q, Eps: eps})
			if err != nil {
				t.Fatal(err)
			}
			fn := dist.For(m)
			want := 0
			for _, tr := range data {
				if fn(q.Points, tr.Points) <= eps {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("measure %v: got %d, want %d", m, len(got), want)
			}
		})
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir must fail")
	}
	if _, err := Open(t.TempDir(), WithMaxResolution(99)); err == nil {
		t.Fatal("bad resolution must fail")
	}
	db := openTestDB(t)
	q := NewTrajectory("q", []Point{{X: 0.5, Y: 0.5}})
	if _, _, err := db.Collect(context.Background(), Query{Kind: KindThreshold, Traj: q, Eps: -1}); !errors.Is(err, ErrInvalidQuery) {
		t.Fatal("negative threshold must fail")
	}
}

func TestLonLatHelpers(t *testing.T) {
	p := NormalizeLonLat(116.4, 39.9)
	lon, lat := DenormalizeLonLat(p)
	if math.Abs(lon-116.4) > 1e-9 || math.Abs(lat-39.9) > 1e-9 {
		t.Fatalf("round trip: %v %v", lon, lat)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := gen.TDrive(gen.TDriveOptions{Seed: 3, N: 50})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// Rows persist in the KV substrate across restarts; a top-k for a stored
	// trajectory must find it at distance 0.
	top, _, err := db2.Collect(context.Background(), Query{Kind: KindTopK, Traj: data[0], K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].ID != data[0].ID || top[0].Distance > 1e-7 {
		t.Fatalf("after reopen: %+v", top)
	}
}

func TestRangeSearchPublicAPI(t *testing.T) {
	db := openTestDB(t)
	data := gen.TDrive(gen.TDriveOptions{Seed: 9, N: 200})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	// A window around a stored trajectory's first point must find it.
	p := data[17].Points[0]
	window := Rect{
		Min: Point{X: p.X - 1e-6, Y: p.Y - 1e-6},
		Max: Point{X: p.X + 1e-6, Y: p.Y + 1e-6},
	}
	matches, _, err := db.Collect(context.Background(), Query{Kind: KindRange, Rect: window})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.ID == data[17].ID {
			found = true
		}
		// Every match genuinely has a point in the window.
		hit := false
		for _, pt := range m.Points {
			if window.ContainsPoint(pt) {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("match %s has no point in the window", m.ID)
		}
	}
	if !found {
		t.Fatal("anchor trajectory not found by range search")
	}
}

func TestCompactAndOptions(t *testing.T) {
	db := openTestDB(t,
		WithDPTolerance(0.005/360),
		WithParallelism(2),
		WithShards(2),
		WithMaxResolution(14),
	)
	data := gen.TDrive(gen.TDriveOptions{Seed: 10, N: 100})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// Queries still exact after compaction.
	top, _, err := db.Collect(context.Background(), Query{Kind: KindTopK, Traj: data[3], K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].ID != data[3].ID {
		t.Fatalf("post-compaction top-1: %+v", top)
	}
}

// WithRefineParallelism must change only wall-clock, never results, and
// surface the pool size through QueryStats.
func TestRefineParallelismOption(t *testing.T) {
	data := gen.TDrive(gen.TDriveOptions{Seed: 11, N: 200})
	q := data[7]
	var baseline []Match
	for i, workers := range []int{1, 4} {
		db := openTestDB(t, WithShards(2), WithRefineParallelism(workers))
		if err := db.PutBatch(data); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		ms, stats, err := db.Collect(context.Background(), Query{Kind: KindThreshold, Traj: q, Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 0 {
			t.Fatal("query must match at least itself")
		}
		if stats.Refined > 0 && stats.RefineWorkers < 1 {
			t.Fatalf("RefineWorkers = %d after refining %d candidates", stats.RefineWorkers, stats.Refined)
		}
		if workers == 1 && stats.RefineWorkers > 1 {
			t.Fatalf("RefineWorkers = %d with WithRefineParallelism(1)", stats.RefineWorkers)
		}
		if i == 0 {
			baseline = ms
		} else if !reflect.DeepEqual(baseline, ms) {
			t.Fatalf("results differ between 1 and %d refinement workers", workers)
		}
	}
}

func TestRandomizedPublicAPIAgainstBrute(t *testing.T) {
	db := openTestDB(t, WithShards(2))
	rng := rand.New(rand.NewSource(4))
	data := gen.Lorry(gen.LorryOptions{Seed: 4, N: 150})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	fn := dist.For(Frechet)
	for i := 0; i < 3; i++ {
		q := data[rng.Intn(len(data))]
		k := 1 + rng.Intn(20)
		got, _, err := db.Collect(context.Background(), Query{Kind: KindTopK, Traj: q, K: k})
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]float64, len(data))
		for j, tr := range data {
			ds[j] = fn(q.Points, tr.Points)
		}
		sort.Float64s(ds)
		for j := range got {
			if math.Abs(got[j].Distance-ds[j]) > 1e-6 {
				t.Fatalf("rank %d: %v want %v", j, got[j].Distance, ds[j])
			}
		}
	}
}

func TestGetByID(t *testing.T) {
	db := openTestDB(t)
	data := gen.TDrive(gen.TDriveOptions{Seed: 11, N: 100})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get(data[42].ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != data[42].ID || got.Len() != data[42].Len() {
		t.Fatalf("Get returned %v", got)
	}
	if _, err := db.Get("no-such-id"); err != ErrNotFound {
		t.Fatalf("missing id: %v", err)
	}
	// Also works after flush + reopen (persisted index).
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(data[7].ID); err != nil {
		t.Fatalf("after flush: %v", err)
	}
	// Timestamps survive the round trip.
	pts := []Point{{X: 0.2, Y: 0.2}, {X: 0.21, Y: 0.2}, {X: 0.22, Y: 0.21}}
	times := []int64{1000, 1060, 1120}
	if err := db.Put(NewTimedTrajectory("timed", pts, times)); err != nil {
		t.Fatal(err)
	}
	timed, err := db.Get("timed")
	if err != nil {
		t.Fatal(err)
	}
	if timed.Len() != len(pts) || !reflect.DeepEqual(timed.Times, times) {
		t.Fatalf("Get lost the timed trajectory: points %v times %v", timed.Points, timed.Times)
	}
}

// Search streams the same matches Collect returns (threshold and range in
// completion order, top-k and knn in Collect's order), and a sink error
// aborts the query and comes back as-is.
func TestSearchMatchesCollect(t *testing.T) {
	db := openTestDB(t)
	data := gen.TDrive(gen.TDriveOptions{Seed: 13, N: 300})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := data[5]
	for _, qu := range []Query{
		{Kind: KindThreshold, Traj: q, Eps: gen.DegreesToNorm(0.05)},
		{Kind: KindTopK, Traj: q, K: 8},
		{Kind: KindRange, Rect: q.MBR()},
		{Kind: KindKNN, Point: q.Points[0], K: 8},
	} {
		want, _, err := db.Collect(ctx, qu)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: vacuous query", qu.Kind)
		}
		var got []Match
		stats, err := db.Search(ctx, qu, func(m Match) error {
			got = append(got, m)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Results != len(want) {
			t.Errorf("%s: stats.Results = %d, want %d", qu.Kind, stats.Results, len(want))
		}
		if qu.Kind == KindThreshold || qu.Kind == KindRange {
			sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
			want = append([]Match(nil), want...)
			sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Search delivered %d matches that differ from Collect's %d", qu.Kind, len(got), len(want))
		}

		sentinel := errors.New("enough")
		if _, err := db.Search(ctx, qu, func(Match) error { return sentinel }); !errors.Is(err, sentinel) {
			t.Errorf("%s: aborted Search returned %v, want the callback's error", qu.Kind, err)
		}
	}
	if _, err := db.Search(ctx, Query{Kind: "nearest"}, func(Match) error { return nil }); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("unknown kind: %v, want ErrInvalidQuery", err)
	}
}

func TestDurabilityAndContextOptions(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithSyncWrites(), WithDegradedScans())
	if err != nil {
		t.Fatal(err)
	}
	data := gen.TDrive(gen.TDriveOptions{Seed: 7, N: 60})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	q := data[10]
	eps := gen.DegreesToNorm(0.01)

	matches, stats, err := db.ThresholdSearchContext(context.Background(), q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches for the stored query itself")
	}
	if stats.PartialErrors != 0 {
		t.Fatalf("healthy store reported %d partial errors", stats.PartialErrors)
	}
	if _, _, err := db.TopKSearchContext(context.Background(), q, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.RangeSearchContext(context.Background(), q.MBR()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.NearestSearchContext(context.Background(), q.Points[0], 5); err != nil {
		t.Fatal(err)
	}

	// A cancelled context must surface its error, not partial results.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := db.ThresholdSearchContext(ctx, q, eps); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}

	// SyncWrites means everything acknowledged is on disk without a Flush:
	// reopen (same dir) and the data must be back.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Count() != 60 {
		t.Fatalf("reopened count = %d, want 60", db2.Count())
	}
	got, err := db2.Get(q.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != q.ID {
		t.Fatalf("got id %q", got.ID)
	}
}
