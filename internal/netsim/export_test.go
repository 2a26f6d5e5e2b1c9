package netsim

// ResetRoutingCaches drops w's memoised catchments, rows included, so the
// external tests can start a property case on cold rows.
func ResetRoutingCaches(w *World) { w.cache.reset() }
