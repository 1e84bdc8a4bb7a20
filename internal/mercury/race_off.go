//go:build !race

package mercury

const RaceEnabled = false
