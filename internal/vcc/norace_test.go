//go:build !race

package vcc_test

const raceEnabled = false
