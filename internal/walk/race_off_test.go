//go:build !race

package walk

// raceEnabled reports whether the race detector is active; allocation-exact
// tests skip under it.
const raceEnabled = false
