package netsim

// Deterministic hashing utilities. The simulator never draws from a
// stateful RNG at probe time: every routing decision, latency sample and
// responsiveness flag is a pure function of (world seed, entity IDs, time
// epoch). This is what makes measurements reproducible — re-running the
// same measurement at the same simulated time yields byte-identical
// results, while measurements at different times see route churn.

// splitmix64 is the SplitMix64 finalizer, a high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix hashes a sequence of 64-bit values into one.
func mix(vals ...uint64) uint64 {
	return mixFrom(0x2545f4914f6cdd1d, vals...)
}

// mixFrom continues a mix: mixFrom(mix(a, b), c, d) == mix(a, b, c, d),
// so hashes that share a prefix hash it once.
func mixFrom(h uint64, vals ...uint64) uint64 {
	for _, v := range vals {
		h = splitmix64(h ^ v)
	}
	return h
}

// unitFloat maps a hash to [0, 1).
func unitFloat(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// pick maps a hash to an index in [0, n).
func pick(h uint64, n int) int {
	if n <= 0 {
		return 0
	}
	return int(h % uint64(n))
}

// chance reports whether the event keyed by h occurs with probability p.
func chance(h uint64, p float64) bool {
	return unitFloat(h) < p
}
