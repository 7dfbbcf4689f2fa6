//go:build race

package main

// raceEnabled lets the subprocess smoke test skip itself under the
// race detector, where every op is an order of magnitude slower.
const raceEnabled = true
