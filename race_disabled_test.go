//go:build !race

package tlevelindex

const raceEnabled = false
