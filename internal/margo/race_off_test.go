//go:build !race

package margo

const raceEnabled = false
