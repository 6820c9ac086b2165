package query

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/store"
	"repro/internal/traj"
)

// appendSection appends one length-prefixed row section.
func appendSection(dst, body []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(body))), body...)
}

// malformedRows builds row values that DecodeRecord rejects but whose outer
// framing is intact, keyed by the defect they carry. Every section other
// than the broken one is the victim's own encoding.
func malformedRows(victim *traj.Trajectory, dpTolerance float64) map[string][]byte {
	feats := traj.ComputeFeatures(victim, dpTolerance)
	pts := traj.EncodePoints(victim.Points)
	ft := traj.EncodeFeatures(feats)
	row := func(pts, ft, tm []byte) []byte {
		buf := appendSection(nil, []byte(victim.ID))
		buf = appendSection(buf, pts)
		buf = appendSection(buf, ft)
		return appendSection(buf, tm)
	}
	noTimes := []byte{0}

	// Box count claiming more boxes than the section holds.
	overBoxes := binary.AppendUvarint(nil, uint64(len(feats.PointIdx)))
	prev := 0
	for _, idx := range feats.PointIdx {
		overBoxes = binary.AppendUvarint(overBoxes, uint64(idx-prev))
		prev = idx
	}
	overBoxes = binary.AppendUvarint(overBoxes, 1000)
	overBoxes = append(overBoxes, 2, 2, 2, 2)

	// One timestamp fewer than there are points.
	shortTimes := binary.AppendUvarint(nil, uint64(len(victim.Points)-1))
	for range victim.Points[1:] {
		shortTimes = append(shortTimes, 2)
	}

	return map[string][]byte{
		"truncated-points":   row(pts[:len(pts)/2], ft, noTimes),
		"box-count-overrun":  row(pts, overBoxes, noTimes),
		"timestamp-mismatch": row(pts, ft, shortTimes),
	}
}

// TestMalformedRowFailsEveryQuery writes a row with a valid key and a
// malformed value straight into the cluster, then checks that every query
// kind that scans it fails with DecodeRecord's error instead of dropping the
// row: push-down filters ship rows they cannot read, and the client-side
// decode reports them.
func TestMalformedRowFailsEveryQuery(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		if err := st.Put(walk(rng, fmt.Sprintf("t%02d", i), 5+rng.Intn(20), 0.01)); err != nil {
			t.Fatal(err)
		}
	}
	victim := walk(rng, "victim", 30, 0.01)
	if err := st.Put(victim); err != nil {
		t.Fatal(err)
	}
	key := st.RowKey(st.Index().Assign(victim.Points), victim.ID)
	window := TimeWindow{Start: 1, End: 1 << 40}

	for defect, bad := range malformedRows(victim, st.Config().DPTolerance) {
		_, want := traj.DecodeRecord(bad)
		if want == nil {
			t.Fatalf("%s: fixture row decodes cleanly", defect)
		}
		if err := st.Cluster().Put(key, bad); err != nil {
			t.Fatal(err)
		}
		for _, tuning := range []Tuning{{}, {EndpointOnlyFilter: true}} {
			e := New(st, dist.Frechet)
			e.SetTuning(tuning)
			queries := map[string]Query{
				"threshold":        {Kind: KindThreshold, Traj: victim, Eps: 0.001},
				"threshold-window": {Kind: KindThreshold, Traj: victim, Eps: 0.001, Window: window},
				"topk":             {Kind: KindTopK, Traj: victim, K: 3},
				"topk-window":      {Kind: KindTopK, Traj: victim, K: 3, Window: window},
				"range":            {Kind: KindRange, Rect: victim.MBR()},
				"range-window":     {Kind: KindRange, Rect: victim.MBR(), Window: window},
			}
			for name, q := range queries {
				_, _, err := collect(e, q)
				if err == nil || !strings.Contains(err.Error(), want.Error()) {
					t.Errorf("%s, %s, endpoint-only=%v: got error %v, want %q",
						defect, name, tuning.EndpointOnlyFilter, err, want)
				}
			}
		}
	}
}
