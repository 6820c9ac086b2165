package query

// TimeWindow restricts a query to trajectories observed within [Start, End]
// (Unix seconds, inclusive). A zero Start or End leaves that side unbounded.
// The XZ* index is purely spatial (as in the paper), so the window applies
// as part of the pushed-down local filter: rows whose timestamp range misses
// the window never leave the region servers.
type TimeWindow struct {
	Start, End int64
}

// Unbounded reports whether the window constrains nothing.
func (w TimeWindow) Unbounded() bool { return w.Start == 0 && w.End == 0 }

// admits reports whether a trajectory with the given timestamp range, as
// TimeBounds returns it, overlaps the window. Untimed trajectories always
// qualify: absence of timestamps must not silently hide data.
func (w TimeWindow) admits(min, max int64, timed bool) bool {
	if w.Unbounded() || !timed {
		return true
	}
	if w.Start != 0 && max < w.Start {
		return false
	}
	if w.End != 0 && min > w.End {
		return false
	}
	return true
}
