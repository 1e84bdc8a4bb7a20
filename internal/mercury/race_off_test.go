//go:build !race

package mercury

const raceEnabled = false
