package main

import (
	"fmt"
	"sort"
	"time"
)

// rank returns the 1-based nearest rank of the per-mille percentile pm in n
// sorted samples: the smallest rank r with r/n >= pm/1000. Integer arithmetic
// keeps p99 of 1000 samples at rank 990, where float math can drift to 991.
func rank(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank per-mille percentile of sorted.
func percentile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), pm)-1]
}

// beyond is how many of n samples lie strictly above the pm percentile's rank.
func beyond(n, pm int) int { return n - rank(n, pm) }

// latency summarises one sample set: the median and the highest of p99/p90
// that still has at least ten samples beyond it, with the counts that make
// the tail figure trustworthy.
type latency struct {
	n          int
	p50        float64
	tailPM     int // per-mille of the chosen tail percentile; 1000 = the maximum
	tail       float64
	tailBeyond int
	windows    int       // >1: the tail is a median over this many windows
	p50Windows int       // >1: the p50 is a median over this many windows
	tails      []float64 // each window's tail, in time order
}

// tailPM picks the reported tail percentile for n samples: p99 when at least
// ten samples lie beyond it, else p90 on the same rule, else the maximum.
func tailPM(n int) int {
	for _, pm := range []int{990, 900} {
		if beyond(n, pm) >= 10 {
			return pm
		}
	}
	return 1000
}

// summarize sorts samples (milliseconds) in place and summarises them.
func summarize(samples []float64) latency {
	sort.Float64s(samples)
	pm := tailPM(len(samples))
	return latency{
		n:          len(samples),
		p50:        percentile(samples, 500),
		tailPM:     pm,
		tail:       percentile(samples, pm),
		tailBeyond: beyond(len(samples), pm),
	}
}

// byWindow summarises each group of samples on its own and returns the
// median of the groups' p50s and of their tails; tailBeyond is then the
// smallest group's count beyond its tail. One stall that spoils a window
// moves the result less than it moves a percentile of the pooled samples.
func byWindow(groups [][]float64) latency {
	var p50s []float64
	out := latency{windows: len(groups), p50Windows: len(groups), tailPM: 1000, tailBeyond: -1}
	for _, g := range groups {
		l := summarize(g)
		out.n += l.n
		p50s = append(p50s, l.p50)
		out.tails = append(out.tails, l.tail)
		out.tailPM = min(out.tailPM, l.tailPM)
		if out.tailBeyond < 0 || l.tailBeyond < out.tailBeyond {
			out.tailBeyond = l.tailBeyond
		}
	}
	out.p50 = median(p50s)
	out.tail = median(out.tails)
	return out
}

// median is the nearest-rank p50 of xs, leaving xs as it was.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 500)
}

// Windows: a run's samples are cut into up to maxWindows consecutive
// windows of equal count, and each figure is the median over windows, so a
// stall or a burst of stolen CPU that spoils one window barely moves it. A
// window holds at least p50Samples for the median and rate, and at least
// tailSamples for the tail, so its p90 keeps ten samples beyond it.
const (
	maxWindows  = 10
	p50Samples  = 30
	tailSamples = 100
)

// windows cuts n samples into k consecutive windows of near-equal count,
// with k as large as maxWindows allows while each keeps least samples; it
// returns each window's end index.
func windows(n, least int) []int {
	k := max(1, min(maxWindows, n/least))
	ends := make([]int, k)
	for i := range ends {
		ends[i] = (i + 1) * n / k
	}
	return ends
}

// byTime summarises samples taken in time order: lat[i] (ms) finished, or
// fell due, at offset at[i] (s) into the run. The p50 and the completion
// rate are medians over windows of at least p50Samples, the tail a median
// over windows of at least tailSamples.
func byTime(lat, at []float64) (latency, float64) {
	if len(lat) == 0 {
		return latency{}, 0
	}
	var p50s, rates []float64
	lo, from := 0, 0.0
	for _, hi := range windows(len(lat), p50Samples) {
		p50s = append(p50s, summarize(append([]float64(nil), lat[lo:hi]...)).p50)
		rates = append(rates, ratio(float64(hi-lo), at[hi-1]-from))
		lo, from = hi, at[hi-1]
	}
	var groups [][]float64
	lo = 0
	for _, hi := range windows(len(lat), tailSamples) {
		groups = append(groups, append([]float64(nil), lat[lo:hi]...))
		lo = hi
	}
	l := byWindow(groups)
	l.p50 = median(p50s)
	l.p50Windows = len(p50s)
	return l, median(rates)
}

// queryTail is the tail over a run's distinct queries rather than over
// its samples.
type queryTail struct {
	latency          // over the queries' median latencies; n counts queries
	samples          int
	repsMin, repsMax int // fewest and most runs of any one query
}

// byQuery summarises latencies by query: lat[i] (ms) was taken by query
// op[i] of the workload's list. Each query's latency is the median of its
// runs, and the tail is the highest of p99/p90 over those medians that keeps
// ten queries beyond it. A stall or a burst of stolen CPU hits a query once
// and its median sets that aside; a query that is slow every time it runs
// stays in the tail.
func byQuery(lat []float64, op []int) queryTail {
	runs := map[int][]float64{}
	for i, l := range lat {
		runs[op[i]] = append(runs[op[i]], l)
	}
	qt := queryTail{samples: len(lat)}
	meds := make([]float64, 0, len(runs))
	for _, r := range runs {
		meds = append(meds, median(r))
		if qt.repsMin == 0 || len(r) < qt.repsMin {
			qt.repsMin = len(r)
		}
		qt.repsMax = max(qt.repsMax, len(r))
	}
	qt.latency = summarize(meds)
	return qt
}

func (q queryTail) note() string {
	return fmt.Sprintf("%s over the median latencies of %d queries, %d beyond; each query ran %d-%d times, n=%d in all",
		q.tailName(), q.n, q.tailBeyond, q.repsMin, q.repsMax, q.samples)
}

func (l latency) tailName() string {
	if l.tailPM == 1000 {
		return "max"
	}
	return fmt.Sprintf("p%d", l.tailPM/10)
}

// p50Note and tailNote describe how the figures were taken, for the report.
func (l latency) p50Note() string {
	if l.p50Windows > 1 {
		return fmt.Sprintf("median over %d windows of each window's p50, n=%d in all", l.p50Windows, l.n)
	}
	return fmt.Sprintf("n=%d", l.n)
}

func (l latency) tailNote() string {
	if l.windows > 1 {
		return fmt.Sprintf("median over %d windows of each window's %s, n=%d in all, >=%d beyond per window, window tails %.3g",
			l.windows, l.tailName(), l.n, l.tailBeyond, l.tails)
	}
	return fmt.Sprintf("%s, n=%d, %d beyond", l.tailName(), l.n, l.tailBeyond)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den that reads 0 instead of NaN on an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
