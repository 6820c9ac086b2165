package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/traj"
)

// The streaming pipeline's core contract: for every query kind, every worker
// count and every queue depth, collected results equal the brute-force
// answer, and every cell of the grid is identical to the sequential,
// fully serialized run (workers=1, depth=1).
func TestStreamDeterminismMatchesBruteForce(t *testing.T) {
	f := newFixture(t, dist.Frechet, 200, 81)
	rng := rand.New(rand.NewSource(82))
	q := nearWalk(rng, f.trajs[3], "q", 0.002)
	const eps, k = 0.01, 25
	window := geo.Rect{Min: geo.Point{X: 0.1, Y: 0.1}, Max: geo.Point{X: 0.9, Y: 0.9}}
	point := geo.Point{X: 0.5, Y: 0.5}
	queries := []Query{
		{Kind: KindThreshold, Traj: q, Eps: eps},
		{Kind: KindTopK, Traj: q, K: k},
		{Kind: KindRange, Rect: window},
		{Kind: KindKNN, Point: point, K: k},
		{Kind: KindThreshold, Traj: q, Eps: eps, Window: TimeWindow{Start: 1}},
		{Kind: KindTopK, Traj: q, K: k, Window: TimeWindow{Start: 1}},
		{Kind: KindRange, Rect: window, Window: TimeWindow{Start: 1}},
	}
	wantThreshold := f.bruteThreshold(q, eps, dist.Frechet)
	wantTopK := f.bruteTopK(q, k, dist.Frechet)
	wantRange := f.bruteRange(window)
	wantKNN := f.bruteNearest(point, k)
	if len(wantThreshold) == 0 || len(wantRange) == 0 {
		t.Fatal("brute-force answer is empty; fixture is vacuous")
	}

	var ref [][]Result
	for _, workers := range []int{1, 2, 8} {
		for _, depth := range []int{1, 0} { // 1 = fully serialized hand-off, 0 = default
			f.engine.SetRefineParallelism(workers)
			f.engine.SetStreamQueueDepth(depth)
			name := fmt.Sprintf("workers=%d depth=%d", workers, depth)
			var cell [][]Result
			for _, qu := range queries {
				got, _, err := collect(f.engine, qu)
				if err != nil {
					t.Fatal(err)
				}
				cell = append(cell, got)
				switch qu.Kind {
				case KindThreshold:
					if ids := resultIDs(got); !reflect.DeepEqual(ids, keys(wantThreshold)) {
						t.Errorf("%s: %s returned %d ids, brute force %d", name, qu.Kind, len(ids), len(wantThreshold))
					}
				case KindRange:
					if ids := resultIDs(got); !reflect.DeepEqual(ids, keys(wantRange)) {
						t.Errorf("%s: %s returned %d ids, brute force %d", name, qu.Kind, len(ids), len(wantRange))
					}
				case KindTopK:
					checkDistances(t, name+" topk", got, wantTopK)
				case KindKNN:
					checkDistances(t, name+" knn", got, wantKNN)
				}
			}
			if ref == nil {
				ref = cell
				continue
			}
			for i := range queries {
				if !reflect.DeepEqual(ref[i], cell[i]) {
					t.Errorf("%s: %s query %d differs from workers=1 depth=1", name, queries[i].Kind, i)
				}
			}
		}
	}
}

// resultIDs returns the sorted ids of a result list.
func resultIDs(rs []Result) []string {
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	sort.Strings(ids)
	return ids
}

// keys returns the sorted keys of a brute-force answer set.
func keys[V any](m map[string]V) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// checkDistances compares a ranked answer to the brute-force distance list.
func checkDistances(t *testing.T, name string, got []Result, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d results, brute force %d", name, len(got), len(want))
		return
	}
	for i := range got {
		if math.Abs(got[i].Distance-want[i]) > 1e-9 {
			t.Errorf("%s: rank %d distance %v, brute force %v", name, i, got[i].Distance, want[i])
			return
		}
	}
}

// The queue depth is a hard occupancy bound: with depth 2, no more than two
// candidates may ever sit between the scan and the merge, while every
// shipped row is still refined.
func TestStreamPeakDepthBounded(t *testing.T) {
	f, base := refineFixture(t, 150, 40, 83)
	f.engine.SetRefineParallelism(4)
	f.engine.SetStreamQueueDepth(2)
	_, stats, err := collect(f.engine, Query{Kind: KindThreshold, Traj: base, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retrieved < 100 {
		t.Fatalf("fixture shipped only %d rows; test is vacuous", stats.Retrieved)
	}
	if stats.StreamPeakDepth < 1 || stats.StreamPeakDepth > 2 {
		t.Errorf("StreamPeakDepth = %d, want within [1, 2]", stats.StreamPeakDepth)
	}
	if int64(stats.Refined) != stats.Retrieved {
		t.Errorf("Refined = %d, Retrieved = %d: bounding the queue must not drop candidates", stats.Refined, stats.Retrieved)
	}
	if stats.StreamBatches == 0 {
		t.Error("StreamBatches = 0 on a streaming query")
	}
}

// When refinement is slower than the scan and the queue is depth 1, the
// producer must block — recorded as StreamStallTime. Driven through the
// executor directly so the slow stage is deterministic.
func TestStreamBackpressureStalls(t *testing.T) {
	f, _ := refineFixture(t, 1, 10, 85)
	rows := f.rawRows(t)
	if len(rows) == 0 {
		t.Fatal("empty fixture")
	}
	// 30 copies of the row: enough hand-offs for a stall to be inevitable.
	var entries []kv.Entry
	for i := 0; i < 30; i++ {
		entries = append(entries, rows...)
	}
	f.engine.SetRefineParallelism(1)
	f.engine.SetStreamQueueDepth(1)
	stats := &Stats{}
	scan := func(ctx context.Context, emit func([]kv.Entry) error) (*cluster.ScanResult, error) {
		for i := range entries {
			if err := emit(entries[i : i+1]); err != nil {
				return nil, err
			}
		}
		return &cluster.ScanResult{}, nil
	}
	err := f.engine.refineFromScan(context.Background(), stats, scan,
		func(rec *traj.Record) refineOutcome {
			time.Sleep(time.Millisecond)
			return refineOutcome{rec: rec, keep: true}
		},
		func(o refineOutcome) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Refined != len(entries) {
		t.Fatalf("refined %d of %d candidates", stats.Refined, len(entries))
	}
	if stats.StreamStallTime <= 0 {
		t.Errorf("StreamStallTime = %v with a slow consumer and depth 1; backpressure never reached the producer", stats.StreamStallTime)
	}
	if stats.StreamPeakDepth > 1 {
		t.Errorf("StreamPeakDepth = %d exceeds configured depth 1", stats.StreamPeakDepth)
	}
}

// Run with a sink streams every threshold match exactly once and honors an
// abort from the sink by returning its error unwrapped.
func TestThresholdFuncDeliveryAndAbort(t *testing.T) {
	f, base := refineFixture(t, 120, 30, 86)
	f.engine.SetRefineParallelism(4)

	qu := Query{Kind: KindThreshold, Traj: base, Eps: 0.5}
	want, _, err := collect(f.engine, qu)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 120 {
		t.Fatalf("fixture matches %d rows, want 120", len(want))
	}

	var got []Result
	_, stats, err := f.engine.Run(context.Background(), qu, func(r Result) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results != len(want) || len(got) != len(want) {
		t.Fatalf("streamed %d results (stats %d), want %d", len(got), stats.Results, len(want))
	}
	byID := func(rs []Result) []Result {
		out := append([]Result(nil), rs...)
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	if !reflect.DeepEqual(byID(got), byID(want)) {
		t.Fatal("streamed result set differs from the collected one")
	}

	sentinel := errors.New("enough")
	delivered := 0
	_, _, err = f.engine.Run(context.Background(), qu, func(r Result) error {
		delivered++
		if delivered >= 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("aborted threshold Run returned %v, want the sink's error", err)
	}
	if delivered != 3 {
		t.Fatalf("callback ran %d times after aborting at 3", delivered)
	}
}

// The same sink contract on the range path.
func TestRangeFuncDelivery(t *testing.T) {
	f := newFixture(t, dist.Frechet, 100, 87)
	window := geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 1, Y: 1}}
	qu := Query{Kind: KindRange, Rect: window}
	want, _, err := collect(f.engine, qu)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("vacuous window")
	}
	count := 0
	_, stats, err := f.engine.Run(context.Background(), qu, func(r Result) error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(want) || stats.Results != len(want) {
		t.Fatalf("streamed %d results (stats %d), want %d", count, stats.Results, len(want))
	}
}
