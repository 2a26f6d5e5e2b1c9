//go:build race

package laces_test

// The race detector instruments every memory access and sync.Pool drops
// a share of what is put back, so allocation counts run far above the
// ledger's ceilings.
const raceEnabled = true
