package netsim

// ResetRoutingCaches drops w's memoised catchments, rows included, so the
// external tests can start a property case on cold rows.
func ResetRoutingCaches(w *World) { w.cache.reset() }

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
