//go:build !race

package laces_test

const raceEnabled = false
