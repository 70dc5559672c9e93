//go:build race

package serve

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop items at random, so allocation counts that rest on a pool are not
// checked under it.
const raceEnabled = true
