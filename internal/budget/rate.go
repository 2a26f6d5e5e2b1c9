package budget

// DefaultMaxRateSteps floors the adaptive rate controller at 1/8th of
// the configured rate — the slowest setting §5.5.2 shows preserves
// census accuracy.
const DefaultMaxRateSteps = 3

// StepRate is the adaptive rate controller: each complaint signal steps
// the effective probing rate down by a power of two, floored after
// DefaultMaxRateSteps halvings (1/8th). It returns the effective rate
// and the number of steps actually taken.
//
// The controller is memoryless and deterministic: the effective rate is
// a pure function of (base, complaints), so a census day re-run with the
// same chaos scenario paces identically.
func StepRate(base float64, complaints int) (float64, int) {
	steps := min(max(complaints, 0), DefaultMaxRateSteps)
	return base / float64(int64(1)<<uint(steps)), steps
}
