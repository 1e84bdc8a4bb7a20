//go:build race

package mercury

// RaceEnabled reports that the race detector is on. That is the build
// the recycle tests run under, so recycled frames and arenas are
// overwritten before they re-enter their pools (see putFrame): a view
// that outlived its rule must fail there, not pass by luck. sync.Pool
// also drops a quarter of its Puts at random then, so allocation pins
// do not hold.
const RaceEnabled = true
