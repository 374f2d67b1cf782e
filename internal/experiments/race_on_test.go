//go:build race

package experiments

// raceEnabled reports a race-detector build, under which sync.Pool drops
// a random share of Puts, so pooled boxes are rebuilt and allocation
// budgets do not hold.
const raceEnabled = true
