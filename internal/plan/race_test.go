//go:build race

package plan_test

// raceEnabled reports a -race build, whose sync.Pool drops a quarter
// of what it is handed.
const raceEnabled = true
