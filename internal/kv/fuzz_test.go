package kv

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/vfs"
)

// fuzzKeys is the key space of FuzzScanRanges: small enough that puts,
// overwrites and deletes collide often.
const fuzzKeys = 48

func fuzzKey(i int) []byte { return []byte(fmt.Sprintf("k%02d", i%fuzzKeys)) }

// byteStream hands out fuzz bytes; zero once exhausted.
type byteStream []byte

func (b *byteStream) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzScanRanges checks the range-list merge iterator against a map model.
// The first bytes drive puts, overwrites and deletes spread over the active
// memtable, frozen memtables (frozen by taking a snapshot) and several
// SSTables. Values are large, so each 4 KiB block holds a few entries and
// ranges straddle block boundaries. The remaining bytes pick a sorted,
// disjoint range list: empty ranges, adjacent ranges, single-key ranges,
// nil bounds, and starts exactly on a block's first key. The scan must
// return exactly the model's live keys inside the ranges, in order, with
// their newest values, from one Scans count and one table pin.
func FuzzScanRanges(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 200, 0, 2, 250, 5, 0, 3, 100, 6, 4, 1, 7, 1, 0, 2, 3, 1, 4, 0, 5, 2})
	f.Add([]byte{
		0, 0, 255, 0, 1, 255, 0, 2, 255, 0, 3, 255, 0, 4, 255, 0, 5, 255, 5,
		1, 2, 9, 0, 2, 40, 6, 4, 3, 5, 0, 40, 255, 0, 41, 255, 7,
		3, 9, 3, 1, 2, 0, 1, 5, 4, 3, 3, 7, 2, 1, 0, 9, 11,
	})
	f.Add(bytes.Repeat([]byte{0, 7, 255, 5, 3, 1, 2}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := byteStream(data)
		db, err := Open(Options{Dir: "/fuzz", FS: vfs.NewFault(), CompactAt: -1, BlockCacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()

		model := map[string]string{}
		flushes := 0
	ops:
		for op := 0; op < 160 && len(in) > 0; op++ {
			switch in.next() % 8 {
			case 0, 1, 2, 3:
				k := fuzzKey(in.next())
				v := bytes.Repeat([]byte{byte('a' + op%26)}, 64+in.next()*8)
				v = append(v, fmt.Sprintf("#%d", op)...)
				if err := db.Put(k, v); err != nil {
					t.Fatal(err)
				}
				model[string(k)] = string(v)
			case 4:
				k := fuzzKey(in.next())
				if err := db.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(model, string(k))
			case 5:
				if flushes < 6 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
					flushes++
				}
			case 6:
				s, err := db.Snapshot() // freezes the active memtable
				if err != nil {
					t.Fatal(err)
				}
				_ = s.Close()
			case 7:
				break ops
			}
		}

		snap, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()

		// Range boundaries: every key, every key's successor, and the first
		// key of every block of the snapshot's tables.
		var firsts [][]byte
		for _, tb := range snap.tables {
			for _, ie := range tb.index {
				firsts = append(firsts, ie.firstKey)
			}
		}
		sort.Slice(firsts, func(i, j int) bool { return bytes.Compare(firsts[i], firsts[j]) < 0 })
		var bounds [][]byte
		for i := 0; i < fuzzKeys; i++ {
			k := fuzzKey(i)
			bounds = append(bounds, k, append(k, 0))
		}
		ranges := fuzzRanges(&in, bounds, firsts)

		var want []Entry
		for k, v := range model {
			for _, r := range ranges {
				if keyInRange([]byte(k), r.Start, r.End) && !r.Empty() {
					want = append(want, Entry{Key: []byte(k), Value: []byte(v)})
					break
				}
			}
		}
		sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].Key, want[j].Key) < 0 })

		refs := make([]int32, len(snap.tables))
		for i, tb := range snap.tables {
			refs[i] = tb.refs.Load()
		}
		scans := db.Stats().Scans
		it := snap.ScanRanges(ranges)
		var got []Entry
		for it.Next() {
			got = append(got, Entry{
				Key:   append([]byte(nil), it.Key()...),
				Value: append([]byte(nil), it.Value()...),
			})
		}
		if err := it.Err(); err != nil {
			t.Fatalf("scan %v: %v", ranges, err)
		}
		for i, tb := range snap.tables {
			if n := tb.refs.Load(); n != refs[i]+1 {
				t.Fatalf("table %d pinned %d times by one scan, want once", i, n-refs[i])
			}
		}
		_ = it.Close()
		for i, tb := range snap.tables {
			if n := tb.refs.Load(); n != refs[i] {
				t.Fatalf("table %d: %d references after close, want %d", i, n, refs[i])
			}
		}
		if n := db.Stats().Scans - scans; n != 1 {
			t.Fatalf("one ScanRanges call counted %d scans", n)
		}
		if len(got) != len(want) {
			t.Fatalf("ranges %q: got %d entries, want %d", ranges, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("ranges %q: entry %d is %q, want %q", ranges, i, got[i].Key, want[i].Key)
			}
		}
	})
}

// fuzzRanges builds a sorted, disjoint range list over the sorted boundary
// keys bounds. Each range starts at or after the previous range's end; the
// bytes choose adjacent or gapped starts, starts on a block's first key
// (from firsts), empty and single-key ranges, and nil bounds at the ends.
func fuzzRanges(in *byteStream, bounds, firsts [][]byte) []Range {
	var ranges []Range
	lo := 0 // index in bounds of the previous range's end
	if in.next()%4 == 0 {
		// Open start: the first range runs from the beginning.
		end := in.next() % len(bounds)
		ranges = append(ranges, Range{End: bounds[end]})
		lo = end
	}
	for n := in.next() % 12; n > 0 && lo < len(bounds); n-- {
		mode := in.next()
		s := lo + (mode/8)%3 // gap 0 makes the range adjacent to the last
		if mode%8 == 0 && len(firsts) > 0 {
			// Start exactly on a block's first key at or after lo.
			i := sort.Search(len(firsts), func(i int) bool { return bytes.Compare(firsts[i], bounds[lo]) >= 0 })
			if i < len(firsts) {
				s = sort.Search(len(bounds), func(j int) bool { return bytes.Compare(bounds[j], firsts[i]) >= 0 })
			}
		}
		if s >= len(bounds) {
			break
		}
		var e int
		switch mode % 8 {
		case 1:
			e = s // empty
		case 2:
			e = s + 1 // a key and its successor: one key, or none
		default:
			e = s + in.next()%24
		}
		if e >= len(bounds) || mode%8 == 7 {
			ranges = append(ranges, Range{Start: bounds[s]}) // open end
			break
		}
		ranges = append(ranges, Range{Start: bounds[s], End: bounds[e]})
		lo = e
	}
	return ranges
}
