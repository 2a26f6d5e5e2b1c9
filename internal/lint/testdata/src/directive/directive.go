// Package directive is the corpus for //laces: directive parsing: every
// malformed directive below must surface as a finding of the
// "directive" pseudo-analyzer, the one well-formed allow must suppress
// its target, and the allow over a line with no finding is stale. The test harness asserts on messages rather than
// `// want` comments because a directive and a want marker cannot share
// a line (a line comment swallows the rest of the line).
package directive

import "time"

//laces:frobnicate this verb does not exist
func unknownVerb() {}

//laces:allow
func allowWithNothing() {}

//laces:allow gremlins the analyzer name is not real
func allowUnknownAnalyzer() {}

//laces:allow detnow
func allowWithoutReason() {}

func unsuppressed() time.Time {
	return time.Now()
}

func suppressed() time.Time {
	return time.Now() //laces:allow detnow well-formed: analyzer plus reason
}

func staleAllow() int {
	//laces:allow detnow nothing below reads the clock any more
	return 1
}
