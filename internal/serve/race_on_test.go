//go:build race

package serve

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, on purpose, so allocation counts mean nothing there.
const raceEnabled = true
