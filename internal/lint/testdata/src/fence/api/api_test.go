package api

// Test files are read for the name rows: a tombstoned name may not come
// back in a test either, and a comment naming writeJSON trips nothing.
func writeJSON() {} // want `one response path: name writeJSON`

type statusRecorder struct{} // want `one response path: name statusRecorder`

var _ = statusRecorder{} // want `one response path: name statusRecorder`
