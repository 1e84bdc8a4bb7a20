//go:build !race

package sdskv

const raceEnabled = false
