//go:build race

package igreedy

// Under the race detector sync.Pool drops a share of what is put back, on
// purpose, so a pooled scratch is regularly rebuilt from nothing and the
// allocation ceiling does not hold.
const raceEnabled = true
