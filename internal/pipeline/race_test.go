//go:build race

package pipeline

// raceEnabled reports whether the race detector is compiled in; allocation
// pins skip under it, because it makes sync.Pool drop puts at random.
const raceEnabled = true
