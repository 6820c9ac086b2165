package main

import (
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		pm   int
		want float64
	}{{500, 500}, {900, 900}, {990, 990}, {999, 999}, {1000, 1000}, {1, 1}} {
		if got := percentile(s, c.pm); got != c.want {
			t.Errorf("p%v of 1..1000 = %v, want %v", float64(c.pm)/10, got, c.want)
		}
	}
	// Nearest rank never interpolates and rounds the rank up: p50 of four
	// samples is the second, p99 of 64 samples is the largest.
	if got := percentile([]float64{1, 2, 3, 4}, 500); got != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2", got)
	}
	s64 := s[:64]
	if got := percentile(s64, 990); got != 64 {
		t.Errorf("p99 of 64 samples = %v, want the maximum 64", got)
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestTailChoice(t *testing.T) {
	for _, c := range []struct {
		n, wantPM, wantBeyond int
	}{
		{5000, 990, 50},
		{1000, 990, 10},
		{999, 900, 99}, // p99 would leave 9 beyond
		{100, 900, 10},
		{99, 1000, 0}, // p90 would leave 9 beyond
		{1, 1000, 0},
	} {
		pm := tailPM(c.n)
		if pm != c.wantPM || beyond(c.n, pm) != c.wantBeyond {
			t.Errorf("n=%d: tail p%v with %d beyond, want p%v with %d beyond",
				c.n, float64(pm)/10, beyond(c.n, pm), float64(c.wantPM)/10, c.wantBeyond)
		}
	}
	l := summarize([]float64{5, 1, 4, 2, 3})
	if l.p50 != 3 || l.tailName() != "max" || l.tail != 5 || l.n != 5 {
		t.Errorf("summarize(1..5) = %+v", l)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Name: "replay", Start: 100, End: 200},
		{ID: 3, Parent: 2, Name: "a", Start: 110, End: 130},
		{ID: 4, Parent: 2, Name: "b", Start: 120, End: 150}, // overlaps a by 10
		{ID: 5, Parent: 2, Name: "c", Start: 190, End: 260}, // runs past its parent
		{ID: 6, Parent: 5, Name: "d", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100, 2: 100 - 40 - 10, 3: 20, 4: 30, 5: 70 - 10, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}

	rows := layerTable(spans)
	if len(rows) != 6 || rows[0].name != "a" || rows[0].selfNS != 20 || rows[0].count != 1 {
		t.Errorf("layerTable rows = %+v", rows[0])
	}
}

func TestCoveredMergesAndClips(t *testing.T) {
	if got := covered(0, 10, [][2]int64{{2, 4}, {3, 6}, {8, 20}, {-5, 1}}); got != 4+2+1 {
		t.Errorf("covered = %d, want 7", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestWindows(t *testing.T) {
	for _, c := range []struct{ n, least, k int }{
		{5000, 100, 10}, {450, 100, 4}, {450, 30, 10}, {120, 100, 1}, {99, 100, 1}, {0, 30, 1},
	} {
		ends := windows(c.n, c.least)
		if len(ends) != c.k || ends[len(ends)-1] != c.n {
			t.Errorf("windows(%d, %d) = %v, want %d windows ending at %d", c.n, c.least, ends, c.k, c.n)
		}
	}
}

func TestByTimeMediansOverWindows(t *testing.T) {
	// 1000 samples over 10 s: every window reads 1..100 ms except one
	// stalled window reading 1000 ms throughout. The medians ignore it.
	var lat, at []float64
	for i := 0; i < 1000; i++ {
		v := float64(i%100 + 1)
		if i/100 == 3 {
			v = 1000
		}
		lat = append(lat, v)
		at = append(at, float64(i+1)/100)
	}
	l, rate := byTime(lat, at)
	if l.windows != 10 || l.p50Windows != 10 {
		t.Fatalf("windows = %d/%d, want 10/10", l.windows, l.p50Windows)
	}
	if l.p50 != 50 || l.tail != 90 || l.tailName() != "p90" || l.tailBeyond != 10 || l.n != 1000 {
		t.Errorf("byTime = %+v, want p50 50 and p90 90 with 10 beyond", l)
	}
	if rate < 99.99 || rate > 100.01 {
		t.Errorf("rate = %v, want 100/s", rate)
	}
}

func TestStratifiedPrefixesSpanSizes(t *testing.T) {
	idx := stratified(1000, 100, 7, 1, func(i int) float64 { return float64(i) })
	seen := map[int]bool{}
	for _, i := range idx {
		seen[i] = true
	}
	if len(idx) != 100 || len(seen) != 100 {
		t.Fatalf("stratified returned %d indices, %d distinct", len(idx), len(seen))
	}
	// Any prefix of 20 holds something from each fifth of the sizes.
	fifths := map[int]bool{}
	for _, i := range idx[:20] {
		fifths[i/200] = true
	}
	if len(fifths) != 5 {
		t.Errorf("first 20 picks cover %d of 5 size fifths: %v", len(fifths), idx[:20])
	}
}

func TestByQueryTakesEachQuerysMedian(t *testing.T) {
	// 100 queries, query i reads i+1 ms on each of its three runs except
	// one stalled run of 1000 ms for every tenth query. The per-query
	// medians ignore the stalls: p90 over 100 queries is the 90th query.
	var lat []float64
	var op []int
	for r := 0; r < 3; r++ {
		for i := 0; i < 100; i++ {
			v := float64(i + 1)
			if r == 1 && i%10 == 0 {
				v = 1000
			}
			lat = append(lat, v)
			op = append(op, i)
		}
	}
	q := byQuery(lat, op)
	if q.n != 100 || q.samples != 300 || q.repsMin != 3 || q.repsMax != 3 {
		t.Fatalf("byQuery counts = %+v, want 100 queries, 300 samples, 3 runs each", q)
	}
	if q.tail != 90 || q.tailName() != "p90" || q.tailBeyond != 10 || q.p50 != 50 {
		t.Errorf("byQuery = %+v, want p50 50 and p90 90 with 10 beyond", q.latency)
	}
}
