//go:build race

package core

// Under the race detector sync.Pool drops a share of what is put back, on
// purpose, so encoding/json's pooled encoder state is regularly rebuilt
// from nothing and the allocation ceiling does not hold.
const raceEnabled = true
