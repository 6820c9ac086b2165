package kv

import (
	"bytes"
	"container/heap"
)

// kvIter is the internal iterator contract shared by memtable snapshots and
// SSTable iterators: entries in ascending key order, each with a kind. seek
// positions the iterator at the first key >= start and bounds the walk at
// end (nil bounds are open); Next then walks [start, end). Sources only move
// forward: each seek's start sorts at or after the previous range's end.
type kvIter interface {
	seek(start, end []byte)
	Next() bool
	Key() []byte
	Value() []byte
	Kind() byte
	Err() error
	Close() error
}

// mergeSource is one input of the merge heap. priority breaks key ties:
// lower = newer data wins.
type mergeSource struct {
	it       kvIter
	priority int
}

type mergeHeap []*mergeSource

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	c := bytes.Compare(h[i].it.Key(), h[j].it.Key())
	if c != 0 {
		return c < 0
	}
	return h[i].priority < h[j].priority
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*mergeSource)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergeIter merges several kvIters into one Iterator over a sorted, disjoint
// range list, resolving key versions (newest wins) and dropping tombstones.
// It walks one range at a time: when every source has reached the range's
// end, it seeks all of them to the next range. It also releases the SSTable
// references it holds when closed.
type mergeIter struct {
	srcs    []mergeSource
	h       mergeHeap
	ranges  []Range
	next    int // index of the next range to open
	stats   *Stats
	key     []byte
	value   []byte
	kind    byte
	lastKey []byte
	hasLast bool
	err     error
	closed  bool
	// tables are released, then extra runs, at Close.
	tables []*sstReader
	extra  func()
	// keepTombstones surfaces tombstones instead of dropping them — the
	// partial-compaction path needs them to keep shadowing older tables.
	keepTombstones bool
}

// newMergeIter merges sources (newest first) over ranges. The ranges must
// be sorted and disjoint; the caller validates them (see checkRanges).
func newMergeIter(sources []kvIter, ranges []Range, stats *Stats, tables []*sstReader, extra func()) *mergeIter {
	m := &mergeIter{
		srcs:   make([]mergeSource, len(sources)),
		h:      make(mergeHeap, 0, len(sources)),
		ranges: ranges,
		stats:  stats,
		tables: tables,
		extra:  extra,
	}
	for pri, it := range sources {
		m.srcs[pri] = mergeSource{it: it, priority: pri}
	}
	return m
}

// fullRange is the one-range list covering the whole key space.
var fullRange = []Range{{}}

// checkRanges reports whether ranges are sorted and disjoint: each non-empty
// range starts at or after the previous non-empty range's end. Empty ranges
// (start >= end) are skipped by the walk and so may sit anywhere.
func checkRanges(ranges []Range) bool {
	var prevEnd []byte
	seen := false
	for _, r := range ranges {
		if r.Empty() {
			continue
		}
		if seen && (prevEnd == nil || r.Start == nil || bytes.Compare(r.Start, prevEnd) < 0) {
			return false
		}
		prevEnd, seen = r.End, true
	}
	return true
}

// openNext seeks every source to the next non-empty range and rebuilds the
// heap. False when no range is left or a source failed.
func (m *mergeIter) openNext() bool {
	for m.next < len(m.ranges) {
		r := m.ranges[m.next]
		m.next++
		if r.Empty() {
			continue
		}
		m.h = m.h[:0]
		for i := range m.srcs {
			src := &m.srcs[i]
			src.it.seek(r.Start, r.End)
			if src.it.Next() {
				m.h = append(m.h, src)
			} else if err := src.it.Err(); err != nil {
				m.err = err
				return false
			}
		}
		if len(m.h) > 0 {
			heap.Init(&m.h)
			return true
		}
	}
	return false
}

func (m *mergeIter) Next() bool {
	if m.err != nil || m.closed {
		return false
	}
	for len(m.h) > 0 || m.openNext() {
		src := m.h[0]
		key := src.it.Key()
		value := src.it.Value()
		kind := src.it.Kind()
		if m.stats != nil {
			m.stats.EntriesWalked.Add(1)
		}

		shadowed := m.hasLast && bytes.Equal(key, m.lastKey)
		if !shadowed {
			m.lastKey = append(m.lastKey[:0], key...)
			m.hasLast = true
		}
		// Copy out before advancing: advancing an SSTable iterator can load a
		// new block and invalidate the slices it handed us.
		emit := !shadowed && (m.keepTombstones || kind != kindTombstone)
		if emit {
			m.key = append(m.key[:0], key...)
			m.value = append(m.value[:0], value...)
			m.kind = kind
		}

		if src.it.Next() {
			heap.Fix(&m.h, 0)
		} else {
			if err := src.it.Err(); err != nil {
				m.err = err
				return false
			}
			heap.Pop(&m.h)
		}

		if !emit {
			continue
		}
		if m.stats != nil {
			m.stats.EntriesRead.Add(1)
		}
		return true
	}
	return false
}

func (m *mergeIter) Key() []byte   { return m.key }
func (m *mergeIter) Value() []byte { return m.value }
func (m *mergeIter) Err() error    { return m.err }

func (m *mergeIter) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	var first error
	for i := range m.srcs {
		if err := m.srcs[i].it.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.srcs, m.h = nil, nil
	for _, t := range m.tables {
		t.release()
	}
	m.tables = nil
	if m.extra != nil {
		m.extra()
		m.extra = nil
	}
	return first
}
