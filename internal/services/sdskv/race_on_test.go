//go:build race

package sdskv

// raceEnabled reports that the race detector is on. sync.Pool then drops
// a quarter of its Puts at random, so allocation pins do not hold.
const raceEnabled = true
