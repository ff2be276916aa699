//go:build race

package tlevelindex

// raceEnabled reports whether the race detector is active. Under -race,
// sync.Pool intentionally drops puts at random, so pooled-scratch
// allocation pins are meaningless there.
const raceEnabled = true
