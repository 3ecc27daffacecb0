//go:build race

package vcc_test

// raceEnabled reports a -race build, under which sync.Pool drops a
// random quarter of its Puts, so pool-backed codecs allocate by design.
const raceEnabled = true
