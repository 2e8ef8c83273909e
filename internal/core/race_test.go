//go:build race

package core

// raceEnabled reports a -race build: sync.Pool then drops pooled items
// at random, so allocation counts through the pool are not exact.
const raceEnabled = true
