package netsim

// ResetRoutingCaches drops w's memoised catchments, rows included, so the
// external tests can start a property case on cold rows.
func ResetRoutingCaches(w *World) { w.cache.reset() }

// UnicastCounts returns the unicast probes and replies w's telemetry
// counted, zeros when w is not instrumented.
func UnicastCounts(w *World) (probes, replies int64) {
	return w.tel.ProbesUnicast(), w.tel.RepliesUnicast()
}

// reset drops every cached entry, rows included (test/ablation hook).
func (c *routingCache) reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.reply = make(map[replyKey]replyVal)
		sh.rows = make(map[uint64]siteRow)
		sh.mu.Unlock()
	}
}

// resetReply drops only the reply-catchment entries, keeping target
// catchments warm — the cold-cache ablation benchmark isolates
// replyCatchment recomputation this way.
func (c *routingCache) resetReply() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.reply = make(map[replyKey]replyVal)
		sh.mu.Unlock()
	}
}
