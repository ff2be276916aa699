//go:build race

package lp

// raceEnabled reports whether the race detector is active. It slows the
// dense reference kernel's inner loops some twenty times, and the kernels
// under comparison share no state for it to watch.
const raceEnabled = true
