package scenario

// ResetShared empties the memo of graphs and programs, as a fresh
// process starts.
func ResetShared() {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	shared.graphs = nil
	shared.programs = nil
}

// SharedSizes reports how many graphs and programs the memo holds.
func SharedSizes() (graphs, programs int) {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	return len(shared.graphs), len(shared.programs)
}

// SharedBound is the memo's bound.
const SharedBound = sharedBound
