package traj

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/geo"
)

// RowView reads an encoded Record in place. The length prefixes of the row
// value (id | points | features | times) give direct access to each
// section, so a push-down filter can test feature boxes, endpoints, time
// bounds and points without materialising the row: the view allocates
// nothing, and a rejected row is never decoded.
//
// Reset accepts exactly the inputs DecodeRecord accepts, so a filter that
// ships every row the view rejects leaves the corruption report to the
// client-side decode. The zero RowView is an empty, untimed row.
type RowView struct {
	points []byte // nPoints (dx, dy) varint pairs, possibly followed by ignored bytes
	idx    []byte // nIdx uvarint deltas of the representative-point indexes
	boxes  []byte // nBoxes groups of four varints
	times  []byte // nTimes varint deltas; nTimes is 0 when the row is untimed

	nPoints, nIdx, nBoxes, nTimes int
}

// Reset points v at the encoded record buf and validates it in one pass,
// skipping every per-value varint instead of decoding it. On error v is
// left empty; the error does not name the defect, DecodeRecord does.
func (v *RowView) Reset(buf []byte) error {
	*v = RowView{}
	var w RowView
	_, buf, ok := cutSection(buf) // id
	if !ok {
		return errCorrupt
	}
	pts, buf, ok := cutSection(buf)
	if !ok {
		return errCorrupt
	}
	ft, buf, ok := cutSection(buf)
	if !ok {
		return errCorrupt
	}

	// Points: a count, then two varints per point.
	n, sz := binary.Uvarint(pts)
	if sz <= 0 {
		return errCorrupt
	}
	pts = pts[sz:]
	if n > 1<<26 || n > uint64(len(pts))/2 {
		return errCorrupt
	}
	if _, ok := skipVarints(pts, 2*int(n)); !ok {
		return errCorrupt
	}
	w.points, w.nPoints = pts, int(n)

	// Features: an index count and its deltas, then a box count and four
	// varints per box.
	n, sz = binary.Uvarint(ft)
	if sz <= 0 {
		return errCorrupt
	}
	ft = ft[sz:]
	if n > 1<<26 || n > uint64(len(ft)) {
		return errCorrupt
	}
	end, ok := skipVarints(ft, int(n))
	if !ok {
		return errCorrupt
	}
	w.idx, w.nIdx = ft[:end], int(n)
	ft = ft[end:]
	n, sz = binary.Uvarint(ft)
	if sz <= 0 {
		return errCorrupt
	}
	ft = ft[sz:]
	if n > 1<<26 || n > uint64(len(ft))/4 {
		return errCorrupt
	}
	if _, ok := skipVarints(ft, 4*int(n)); !ok {
		return errCorrupt
	}
	w.boxes, w.nBoxes = ft, int(n)

	// Times: absent in rows written before the section existed; otherwise a
	// count (zero when untimed) and one varint per point.
	if len(buf) > 0 {
		tm, _, ok := cutSection(buf)
		if !ok {
			return errCorrupt
		}
		n, sz = binary.Uvarint(tm)
		if sz <= 0 {
			return errCorrupt
		}
		tm = tm[sz:]
		if n > 0 {
			if n > 1<<26 || n > uint64(len(tm)) {
				return errCorrupt
			}
			if _, ok := skipVarints(tm, int(n)); !ok {
				return errCorrupt
			}
			if int(n) != w.nPoints {
				return errCorrupt
			}
			w.times, w.nTimes = tm, int(n)
		}
	}
	*v = w
	return nil
}

// cutSection splits one uvarint-length-prefixed section off buf.
func cutSection(buf []byte) (body, rest []byte, ok bool) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || uint64(len(buf)-sz) < n {
		return nil, nil, false
	}
	end := sz + int(n)
	return buf[sz:end], buf[end:], true
}

// skipVarints steps over k varints under binary.Uvarint's error rules (a
// varint must end inside buf, within MaxVarintLen64 bytes, and its tenth byte
// may not exceed 1) and returns the bytes consumed. Each varint ends at the
// first byte below 0x80, so whole words whose terminators all belong to the
// k varints are counted eight bytes at a time.
func skipVarints(buf []byte, k int) (int, bool) {
	const last = binary.MaxVarintLen64 - 1 // index of a varint's last allowed byte
	i, run := 0, 0                         // run: continuation bytes since the last terminator
	for k > 8 && len(buf)-i >= 8 {
		term := ^binary.LittleEndian.Uint64(buf[i:]) & 0x8080808080808080
		if term == 0 {
			if run += 8; run > last {
				return 0, false
			}
			i += 8
			continue
		}
		// Only the word's first terminator can end a varint long enough to
		// overflow: the others follow at most seven continuation bytes.
		if n := run + bits.TrailingZeros64(term)/8; n > last || n == last && buf[i+n-run] > 1 {
			return 0, false
		}
		k -= bits.OnesCount64(term)
		run = bits.LeadingZeros64(term) / 8
		i += 8
	}
	for ; k > 0; i++ {
		if i == len(buf) {
			return 0, false
		}
		if b := buf[i]; b < 0x80 {
			if run == last && b > 1 {
				return 0, false
			}
			run = 0
			k--
		} else if run++; run > last {
			return 0, false
		}
	}
	return i, true
}

// readUvarint decodes a uvarint that Reset has already validated; it agrees
// with binary.Uvarint on every such input.
func readUvarint(buf []byte) (uint64, int) {
	if b := buf[0]; b < 0x80 {
		return uint64(b), 1
	}
	var x uint64
	var s uint
	for i, b := range buf {
		if b < 0x80 {
			return x | uint64(b)<<s, i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0
}

// readVarint is readUvarint with binary.Varint's zig-zag mapping.
func readVarint(buf []byte) (int64, int) {
	ux, n := readUvarint(buf)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, n
}

// Len returns the number of points.
func (v *RowView) Len() int { return v.nPoints }

// pointIter walks a row's points in order.
type pointIter struct {
	buf  []byte
	left int
	x, y int64
}

func (v *RowView) walk() pointIter { return pointIter{buf: v.points, left: v.nPoints} }

// next returns the next point, or ok=false once every point was returned.
func (it *pointIter) next() (p geo.Point, ok bool) {
	if it.left == 0 {
		return geo.Point{}, false
	}
	it.left--
	dx, n := readVarint(it.buf)
	it.buf = it.buf[n:]
	dy, n := readVarint(it.buf)
	it.buf = it.buf[n:]
	it.x += dx
	it.y += dy
	return geo.Point{X: dequantize(it.x), Y: dequantize(it.y)}, true
}

// First returns the first point; the row must have one.
func (v *RowView) First() geo.Point {
	it := v.walk()
	p, _ := it.next()
	return p
}

// Last returns the last point; the row must have one. It walks every point.
func (v *RowView) Last() geo.Point {
	it := v.walk()
	var last geo.Point
	for p, ok := it.next(); ok; p, ok = it.next() {
		last = p
	}
	return last
}

// AnyPointIn reports whether some point lies inside r, stopping at the
// first one that does.
func (v *RowView) AnyPointIn(r geo.Rect) bool {
	it := v.walk()
	for p, ok := it.next(); ok; p, ok = it.next() {
		if r.ContainsPoint(p) {
			return true
		}
	}
	return false
}

// AppendPoints appends every point to dst.
func (v *RowView) AppendPoints(dst []geo.Point) []geo.Point {
	it := v.walk()
	for p, ok := it.next(); ok; p, ok = it.next() {
		dst = append(dst, p)
	}
	return dst
}

// AppendBoxes appends the feature boxes to dst, as Features.Boxes holds them.
func (v *RowView) AppendBoxes(dst []geo.Rect) []geo.Rect {
	buf := v.boxes
	for i := 0; i < v.nBoxes; i++ {
		var vals [4]int64
		for j := range vals {
			var n int
			vals[j], n = readVarint(buf)
			buf = buf[n:]
		}
		dst = append(dst, geo.Rect{
			Min: geo.Point{X: dequantize(vals[0]), Y: dequantize(vals[1])},
			Max: geo.Point{X: dequantize(vals[2]), Y: dequantize(vals[3])},
		})
	}
	return dst
}

// AppendRepPoints appends the representative points (the points at
// Features.PointIdx) to dst in PointIdx order. Indexes outside the point
// sequence, which only a corrupt row can hold, are skipped.
func (v *RowView) AppendRepPoints(dst []geo.Point) []geo.Point {
	it := v.walk()
	pos := -1 // index of cur
	var cur geo.Point
	buf := v.idx
	idx := 0
	for k := 0; k < v.nIdx; k++ {
		d, n := readUvarint(buf)
		buf = buf[n:]
		idx += int(d)
		if idx < 0 || idx >= v.nPoints {
			continue
		}
		if idx < pos {
			// Stored indexes ascend; a corrupt row's may not.
			it, pos = v.walk(), -1
		}
		for pos < idx {
			cur, _ = it.next()
			pos++
		}
		dst = append(dst, cur)
	}
	return dst
}

// TimeBounds returns the row's timestamp range, or ok=false when untimed.
func (v *RowView) TimeBounds() (min, max int64, ok bool) {
	if v.nTimes == 0 {
		return 0, 0, false
	}
	buf := v.times
	var t int64
	for i := 0; i < v.nTimes; i++ {
		d, n := readVarint(buf)
		buf = buf[n:]
		t += d
		if i == 0 || t < min {
			min = t
		}
		if i == 0 || t > max {
			max = t
		}
	}
	return min, max, true
}
