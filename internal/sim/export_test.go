package sim

// ResetCells empties the store of released cell state, so that the
// next network is built with nothing handed on.
func ResetCells() {
	for releasedCells.Get() != nil {
	}
}

// FreshCells returns how many networks found no released cell state to
// draw and started on a new one.
func FreshCells() int64 { return releasedCells.Misses() }
