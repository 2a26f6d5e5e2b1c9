//go:build !race

package igreedy

const raceEnabled = false
