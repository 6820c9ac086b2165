package trass_test

// One testing.B benchmark per evaluation figure. Each iteration regenerates
// the figure end to end on a reduced workload; run cmd/trassbench for
// paper-scale tables. `go test -bench=Fig -benchtime=1x` touches every
// figure once.

import (
	"context"
	"io"
	"os"
	"testing"

	trass "repro"
	"repro/internal/bench"
	"repro/internal/gen"
)

func benchDataset() []*trass.Trajectory {
	return gen.TDrive(gen.TDriveOptions{Seed: 5, N: 5000})
}

func benchmarkFigure(b *testing.B, name string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp(b.TempDir(), "fig-*")
		if err != nil {
			b.Fatal(err)
		}
		cfg := bench.Config{Dir: dir, TDriveN: 1000, LorryN: 1000, Queries: 4, Seed: 1}
		if err := bench.Run(name, cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9ThresholdSearch(b *testing.B) { benchmarkFigure(b, "fig9") }
func BenchmarkFig10TopK(b *testing.B)           { benchmarkFigure(b, "fig10") }
func BenchmarkFig11Pruning(b *testing.B)        { benchmarkFigure(b, "fig11") }
func BenchmarkFig12Distribution(b *testing.B)   { benchmarkFigure(b, "fig12") }
func BenchmarkFig13Indexing(b *testing.B)       { benchmarkFigure(b, "fig13") }
func BenchmarkFig14Resolution(b *testing.B)     { benchmarkFigure(b, "fig14") }
func BenchmarkFig17Scalability(b *testing.B)    { benchmarkFigure(b, "fig17") }
func BenchmarkFig18TailLatency(b *testing.B)    { benchmarkFigure(b, "fig18") }
func BenchmarkFig19Shards(b *testing.B)         { benchmarkFigure(b, "fig19") }
func BenchmarkFig20OtherMeasures(b *testing.B)  { benchmarkFigure(b, "fig20") }
func BenchmarkIOReduction(b *testing.B)         { benchmarkFigure(b, "io") }
func BenchmarkAblation(b *testing.B)            { benchmarkFigure(b, "ablation") }

// Micro-benchmarks of the public API's two query paths on a mid-sized store.

func newBenchDB(b *testing.B) (*trass.DB, []*trass.Trajectory) {
	b.Helper()
	db, err := trass.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	data := benchDataset()
	if err := db.PutBatch(data); err != nil {
		b.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	return db, data
}

func BenchmarkThresholdSearch(b *testing.B) {
	db, data := newBenchDB(b)
	q := trass.Query{Kind: trass.KindThreshold, Traj: data[123], Eps: 0.01 / 360}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Collect(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKSearch(b *testing.B) {
	db, data := newBenchDB(b)
	q := trass.Query{Kind: trass.KindTopK, Traj: data[123], K: 50}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Collect(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeSearch queries one stored trajectory's MBR, the window
// shape the repository benchmark's range workload uses: most scanned rows
// are rejected by the pushed-down filter, so it tracks filter cost.
func BenchmarkRangeSearch(b *testing.B) {
	db, data := newBenchDB(b)
	q := trass.Query{Kind: trass.KindRange, Rect: data[123].MBR()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Collect(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPut(b *testing.B) {
	db, err := trass.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	data := benchDataset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := data[i%len(data)]
		if err := db.Put(t); err != nil {
			b.Fatal(err)
		}
	}
}
