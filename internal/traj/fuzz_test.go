package traj

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// fuzzTol returns the acceptable coordinate drift after one
// quantize/dequantize cycle: half a quantum plus float64 rounding that grows
// with magnitude (fuzzed records may hold coordinates far outside [0,1)).
func fuzzTol(x float64) float64 {
	return 0.5/coordScale + math.Abs(x)*1e-9
}

func pointsClose(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].X-b[i].X) > fuzzTol(a[i].X) || math.Abs(a[i].Y-b[i].Y) > fuzzTol(a[i].Y) {
			return false
		}
	}
	return true
}

// FuzzTrajCodec feeds arbitrary bytes to the record decoder: it must never
// panic or over-allocate, and anything it accepts must survive an
// encode/decode round trip with identical structure.
func FuzzTrajCodec(f *testing.F) {
	rec := &Record{
		ID:     "t-001",
		Points: []geo.Point{{X: 0.1, Y: 0.2}, {X: 0.15, Y: 0.22}, {X: 0.3, Y: 0.1}},
		Times:  []int64{1700000000, 1700000060, 1700000120},
		Features: &Features{
			PointIdx: []int{0, 2},
			Boxes:    []geo.Rect{{Min: geo.Point{X: 0.1, Y: 0.1}, Max: geo.Point{X: 0.3, Y: 0.22}}},
		},
	}
	f.Add(EncodeRecord(rec))
	f.Add(EncodeRecord(&Record{ID: "", Points: nil, Features: &Features{}}))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge uvarint count
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return // rejected input is fine; panics and OOMs are not
		}
		reenc := EncodeRecord(rec)
		rec2, err := DecodeRecord(reenc)
		if err != nil {
			t.Fatalf("re-decode of a decoded record failed: %v", err)
		}
		if rec2.ID != rec.ID {
			t.Fatalf("ID changed across round trip: %q -> %q", rec.ID, rec2.ID)
		}
		if !pointsClose(rec.Points, rec2.Points) {
			t.Fatalf("points drifted across round trip:\n%v\n%v", rec.Points, rec2.Points)
		}
		if len(rec2.Times) != len(rec.Times) {
			t.Fatalf("timestamp count changed: %d -> %d", len(rec.Times), len(rec2.Times))
		}
		for i := range rec.Times {
			if rec.Times[i] != rec2.Times[i] {
				t.Fatalf("timestamp %d changed: %d -> %d", i, rec.Times[i], rec2.Times[i])
			}
		}
		if len(rec2.Features.PointIdx) != len(rec.Features.PointIdx) ||
			len(rec2.Features.Boxes) != len(rec.Features.Boxes) {
			t.Fatalf("feature shape changed: (%d,%d) -> (%d,%d)",
				len(rec.Features.PointIdx), len(rec.Features.Boxes),
				len(rec2.Features.PointIdx), len(rec2.Features.Boxes))
		}
		for i := range rec.Features.PointIdx {
			if rec.Features.PointIdx[i] != rec2.Features.PointIdx[i] {
				t.Fatalf("feature index %d changed: %d -> %d",
					i, rec.Features.PointIdx[i], rec2.Features.PointIdx[i])
			}
		}
		// Timestamps, when present, were validated against the point count.
		if rec.Times != nil && len(rec.Times) != len(rec.Points) {
			t.Fatalf("decoder accepted %d timestamps for %d points", len(rec.Times), len(rec.Points))
		}

		// A second encode must be byte-identical: dequantize/quantize is
		// idempotent after the first cycle, so the format is canonical.
		if !bytes.Equal(reenc, EncodeRecord(rec2)) {
			t.Fatal("encoding is not canonical: re-encoding a round-tripped record changed bytes")
		}
	})
}

// FuzzPointsRoundTrip drives the structured point codec with in-domain
// coordinates derived from the fuzz input: encode must be lossless up to one
// quantum per coordinate.
func FuzzPointsRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pts []geo.Point
		for i := 0; i+4 <= len(data); i += 4 {
			// Two 16-bit fixed-point coordinates per point, spanning [0,1).
			x := float64(uint16(data[i])|uint16(data[i+1])<<8) / 65536
			y := float64(uint16(data[i+2])|uint16(data[i+3])<<8) / 65536
			pts = append(pts, geo.Point{X: x, Y: y})
		}
		dec, err := DecodePoints(EncodePoints(pts))
		if err != nil {
			t.Fatalf("decode of a fresh encoding failed: %v", err)
		}
		if len(dec) != len(pts) {
			t.Fatalf("point count changed: %d -> %d", len(pts), len(dec))
		}
		for i := range pts {
			if math.Abs(dec[i].X-pts[i].X) > 0.5/coordScale || math.Abs(dec[i].Y-pts[i].Y) > 0.5/coordScale {
				t.Fatalf("point %d drifted: %v -> %v", i, pts[i], dec[i])
			}
		}
	})
}

// wantRepPoints is what RowView.AppendRepPoints must serve for rec: the
// points at the feature indexes, skipping indexes outside the points.
func wantRepPoints(rec *Record) []geo.Point {
	var out []geo.Point
	for _, idx := range rec.Features.PointIdx {
		if idx >= 0 && idx < len(rec.Points) {
			out = append(out, rec.Points[idx])
		}
	}
	return out
}

// checkRowView asserts that every value v serves equals the value computed
// from the decoded record, including AnyPointIn for each of rects.
func checkRowView(t *testing.T, v *RowView, rec *Record, rects ...geo.Rect) {
	t.Helper()
	if v.Len() != len(rec.Points) {
		t.Fatalf("view has %d points, record %d", v.Len(), len(rec.Points))
	}
	if got := v.AppendPoints(nil); !pointsEqual(got, rec.Points) {
		t.Fatalf("view points %v, record %v", got, rec.Points)
	}
	if len(rec.Points) > 0 {
		if got, want := v.First(), rec.Points[0]; got != want {
			t.Fatalf("first point %v, want %v", got, want)
		}
		if got, want := v.Last(), rec.Points[len(rec.Points)-1]; got != want {
			t.Fatalf("last point %v, want %v", got, want)
		}
	}
	boxes := v.AppendBoxes(nil)
	if len(boxes) != len(rec.Features.Boxes) {
		t.Fatalf("view has %d boxes, record %d", len(boxes), len(rec.Features.Boxes))
	}
	for i, b := range boxes {
		if b != rec.Features.Boxes[i] {
			t.Fatalf("box %d: %v, want %v", i, b, rec.Features.Boxes[i])
		}
	}
	if got, want := v.AppendRepPoints(nil), wantRepPoints(rec); !pointsEqual(got, want) {
		t.Fatalf("representative points %v, want %v", got, want)
	}
	gmin, gmax, gok := v.TimeBounds()
	wmin, wmax, wok := rec.TimeBounds()
	if gmin != wmin || gmax != wmax || gok != wok {
		t.Fatalf("time bounds (%d, %d, %v), want (%d, %d, %v)", gmin, gmax, gok, wmin, wmax, wok)
	}
	for _, r := range rects {
		want := false
		for _, p := range rec.Points {
			if r.ContainsPoint(p) {
				want = true
				break
			}
		}
		if got := v.AnyPointIn(r); got != want {
			t.Fatalf("AnyPointIn(%v) = %v, want %v", r, got, want)
		}
	}
}

func pointsEqual(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fuzzRects derives two query rects from the fuzz input: one around a
// stored point (so hits occur), with a half-width that may be zero, and one
// anywhere in the plane.
func fuzzRects(data []byte, pts []geo.Point) []geo.Rect {
	h := fnv.New64a()
	h.Write(data)
	s := h.Sum64()
	unit := func(bits uint64) float64 { return float64(bits&0xffff) / 0xffff }
	a, b := unit(s), unit(s>>16)
	free := geo.Rect{
		Min: geo.Point{X: math.Min(a, b), Y: unit(s >> 32)},
		Max: geo.Point{X: math.Max(a, b), Y: unit(s>>32) + unit(s>>48)},
	}
	if len(pts) == 0 {
		return []geo.Rect{free}
	}
	c := pts[s%uint64(len(pts))]
	w := unit(s>>20) * 1e-3
	if s&1 == 0 {
		w = 0
	}
	near := geo.Rect{Min: geo.Point{X: c.X - w, Y: c.Y - w}, Max: geo.Point{X: c.X + w, Y: c.Y + w}}
	return []geo.Rect{free, near}
}

// FuzzRowView checks the allocation-free row view against DecodeRecord: it
// must accept exactly the inputs the decoder accepts, and every value it
// serves must equal the value computed from the decoded record.
func FuzzRowView(f *testing.F) {
	rec := &Record{
		ID:     "t-001",
		Points: []geo.Point{{X: 0.1, Y: 0.2}, {X: 0.15, Y: 0.22}, {X: 0.3, Y: 0.1}},
		Times:  []int64{1700000000, 1700000060, 1700000120},
		Features: &Features{
			PointIdx: []int{0, 2},
			Boxes:    []geo.Rect{{Min: geo.Point{X: 0.1, Y: 0.1}, Max: geo.Point{X: 0.3, Y: 0.22}}},
		},
	}
	valid := EncodeRecord(rec)
	f.Add(valid)
	f.Add(valid[:len(valid)-4]) // times section cut short
	f.Add(EncodeRecord(&Record{ID: "", Points: nil, Features: &Features{}}))
	f.Add(EncodeRecord(&Record{ID: "p", Points: rec.Points[:1], Features: &Features{PointIdx: []int{0}}}))
	f.Add(EncodeRecord(&Record{ID: "x", Points: rec.Points, Features: &Features{PointIdx: []int{2, 5, 1}}}))
	// One seed per check Reset shares with DecodeRecord, so plain go test
	// covers each: too few timestamps, a box count past the section, and a
	// point count past the section.
	f.Add(EncodeRecord(&Record{ID: "m", Points: rec.Points, Times: rec.Times[:2], Features: rec.Features}))
	section := func(dst, body []byte) []byte { return append(appendUvarint(dst, uint64(len(body))), body...) }
	row := func(pts, ft []byte) []byte {
		return section(section(section(section(nil, []byte("c")), pts), ft), []byte{0})
	}
	pts, ft := EncodePoints(rec.Points), EncodeFeatures(rec.Features)
	f.Add(row(pts, []byte{2, 0, 2, 9, 1, 1, 1, 1}))
	f.Add(row(append([]byte{4}, pts[1:]...), ft))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge uvarint count
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		var v RowView
		verr := v.Reset(data)
		if (err == nil) != (verr == nil) {
			t.Fatalf("DecodeRecord error %v, RowView.Reset error %v", err, verr)
		}
		if err != nil {
			return
		}
		checkRowView(t, &v, rec, fuzzRects(data, rec.Points)...)
	})
}

// TestSkipVarintsMatchesUvarint holds skipVarints, including its
// eight-bytes-at-a-time path, to repeated binary.Uvarint calls on buffers
// full of boundary cases: runs of continuation bytes around the ten-byte
// limit, a tenth byte of 1 and of 2, and truncation at every length.
func TestSkipVarintsMatchesUvarint(t *testing.T) {
	want := func(buf []byte, k int) (int, bool) {
		i := 0
		for ; k > 0; k-- {
			_, n := binary.Uvarint(buf[i:])
			if n <= 0 {
				return 0, false
			}
			i += n
		}
		return i, true
	}
	rng := rand.New(rand.NewSource(8))
	pieces := [][]byte{
		{0}, {1}, {0x7f}, {0x80, 1}, {0xff, 0xff, 0x03}, {0x80}, {0x80, 0x80},
		bytes.Repeat([]byte{0x80}, 8), bytes.Repeat([]byte{0x80}, 9), bytes.Repeat([]byte{0xff}, 10),
		append(bytes.Repeat([]byte{0xff}, 9), 1), append(bytes.Repeat([]byte{0xff}, 9), 2),
	}
	for iter := 0; iter < 20000; iter++ {
		var buf []byte
		for len(buf) < 48 {
			buf = append(buf, pieces[rng.Intn(len(pieces))]...)
		}
		buf = buf[:rng.Intn(len(buf)+1)]
		for k := 0; k <= 30; k++ {
			gn, gok := skipVarints(buf, k)
			wn, wok := want(buf, k)
			if gn != wn || gok != wok {
				t.Fatalf("skipVarints(%x, %d) = (%d, %v), want (%d, %v)", buf, k, gn, gok, wn, wok)
			}
		}
	}
}
