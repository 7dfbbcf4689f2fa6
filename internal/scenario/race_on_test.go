//go:build race

package scenario

// raceEnabled is set under the race detector, whose sync.Pool drops a
// random quarter of what is put in it.
const raceEnabled = true
