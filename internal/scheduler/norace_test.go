//go:build !race

package scheduler

// raceEnabled reports a -race build, whose sync.Pool drops puts at random.
const raceEnabled = false
