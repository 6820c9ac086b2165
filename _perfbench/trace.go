package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one operation share
// Trace; a root span has Parent 0. Times are nanoseconds since the tracer
// started.
type span struct {
	Trace  int64              `json:"trace"`
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends; serve-rw
// records from two goroutines, hence the mutex.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	traces int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh operation identifier.
func (tr *tracer) newTrace() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.traces++
	return tr.traces
}

// record stores a finished span and returns its id.
func (tr *tracer) record(trace, parent int64, name string, start, end time.Time, attrs map[string]float64) int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := int64(len(tr.spans)) + 1
	tr.spans = append(tr.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(tr.t0).Nanoseconds(), End: end.Sub(tr.t0).Nanoseconds(),
		Attrs: attrs,
	})
	return id
}

// reserve allocates the id of a parent span whose end is not known yet, so
// its children can name it; fill completes it.
func (tr *tracer) reserve(trace int64, name string) int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := int64(len(tr.spans)) + 1
	tr.spans = append(tr.spans, span{Trace: trace, ID: id, Name: name})
	return id
}

func (tr *tracer) fill(id int64, start, end time.Time) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id-1]
	s.Start, s.End = start.Sub(tr.t0).Nanoseconds(), end.Sub(tr.t0).Nanoseconds()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers. Overlapping children
// count once; children reaching outside the parent are clipped to it.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of [lo,hi) that the union of ivs overlaps.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	name     string
	count    int
	selfNS   int64
	totalNS  int64
	attrSums map[string]float64
}

// layerTable groups spans by name, in name order.
func layerTable(spans []span) []*layerRow {
	self := selfTimes(spans)
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name, attrSums: make(map[string]float64)}
			rows[s.Name] = r
		}
		r.count++
		r.selfNS += self[s.ID]
		r.totalNS += s.dur()
		for k, v := range s.Attrs {
			r.attrSums[k] += v
		}
	}
	out := make([]*layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// printLayerTable writes the per-layer table: per span name its count, self
// and total time per operation (ops, the traced operations, is the base),
// its share of all self time, and the mean of each attribute per span.
func printLayerTable(w io.Writer, workload string, rows []*layerRow, ops int) {
	var allSelf int64
	for _, r := range rows {
		allSelf += r.selfNS
	}
	fmt.Fprintf(w, "# layer table %s: %d traced ops, %.3f ms self time in all spans\n", workload, ops, float64(allSelf)/1e6)
	fmt.Fprintf(w, "#   %-22s %8s %12s %12s %14s\n", "span", "count", "self_us/op", "total_us/op", "self_share")
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-22s %8d %12.3f %12.3f %7.4f of %.3fms\n", r.name, r.count,
			ratio(float64(r.selfNS)/1e3, float64(ops)), ratio(float64(r.totalNS)/1e3, float64(ops)),
			ratio(float64(r.selfNS), float64(allSelf)), float64(allSelf)/1e6)
		keys := make([]string, 0, len(r.attrSums))
		for k := range r.attrSums {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%.4g", k, r.attrSums[k]/float64(r.count))
		}
		if b.Len() > 0 {
			fmt.Fprintf(w, "#     mean per span:%s\n", b.String())
		}
	}
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
