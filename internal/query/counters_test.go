package query

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
)

// TestThresholdOpensOneIteratorPerRegion is a counter gate, not a clock: a
// region scan attempt opens one kv iterator over all of the key ranges the
// plan puts in that region, so a query's kv scan count never exceeds its
// region RPCs. Queries run one at a time, so the cluster-wide counter delta
// is the query's own. Only plans with more key ranges than RPCs (so at least
// two ranges in some region) are counted, and the test requires some.
func TestThresholdOpensOneIteratorPerRegion(t *testing.T) {
	fx := newFixture(t, dist.Frechet, 200, 17)
	cl := fx.store.Cluster()
	shards := int64(fx.store.Config().Shards)
	kvScans := func() int64 {
		s, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return s.KV.Scans
	}
	check := func(kind string, run func() (*Stats, error)) bool {
		before := kvScans()
		st, err := run()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		scans := kvScans() - before
		if scans > st.RPCs {
			t.Fatalf("%s: %d kv iterators for %d region RPCs (%d value ranges × %d shards)",
				kind, scans, st.RPCs, st.Ranges, shards)
		}
		return int64(st.Ranges)*shards > st.RPCs
	}

	multi := 0
	for i := 0; i < 20; i++ {
		q := fx.trajs[(i*37)%len(fx.trajs)]
		if check("threshold", func() (*Stats, error) {
			_, st, err := collect(fx.engine, Query{Kind: KindThreshold, Traj: q, Eps: 0.005})
			return st, err
		}) {
			multi++
		}
		w := geo.MBRPoints(q.Points).Buffer(0.01)
		if check("range", func() (*Stats, error) {
			_, st, err := collect(fx.engine, Query{Kind: KindRange, Rect: w})
			return st, err
		}) {
			multi++
		}
	}
	if multi < 10 {
		t.Fatalf("only %d queries put several key ranges in one region; the gate is vacuous", multi)
	}
}
