//go:build race

package txn_test

// raceEnabled is true under the race detector, whose shadow memory and
// slowdown make heap and throughput figures meaningless.
const raceEnabled = true
