package netsim

import "sync"

// The two memoised routing primitives (reply catchment and target
// catchment) used to share one global mutex, which became the contention
// ceiling once the census loops were sharded across cores: every probe
// takes both caches at least once. The caches are now split into 64
// hash-indexed shards, each with its own RWMutex — readers of a warm cache
// only ever take a read lock on one shard, so concurrent probing scales
// near-linearly. Cached values are pure functions of their key and the
// world seed, so a racing duplicate computation writes the same bytes and
// determinism is unaffected.

const (
	cacheShardBits = 6
	numCacheShards = 1 << cacheShardBits // 64
)

type routingShard struct {
	mu    sync.RWMutex
	reply map[replyKey]replyVal
	site  map[siteKey]uint16
}

// routingCache is the sharded memoisation store embedded in World.
// tel, when installed via World.SetTelemetry, receives hit/miss
// accounting: one packed striped add per lookup of either cache. Counting
// never changes what a lookup returns.
type routingCache struct {
	shards [numCacheShards]routingShard
	tel    *Telemetry
}

// init allocates the shard maps (called once from New).
func (c *routingCache) init() {
	for i := range c.shards {
		c.shards[i].reply = make(map[replyKey]replyVal)
		c.shards[i].site = make(map[siteKey]uint16)
	}
}

// reset drops every cached entry (test/ablation hook).
func (c *routingCache) reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.reply = make(map[replyKey]replyVal)
		sh.site = make(map[siteKey]uint16)
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

// shardOf hashes a key fingerprint to its shard. splitmix64 scrambles the
// low bits so dense IDs (city and target indices) spread evenly.
func (c *routingCache) shardOf(h uint64) *routingShard {
	return &c.shards[splitmix64(h)&(numCacheShards-1)]
}

func (c *routingCache) replyShard(k replyKey) *routingShard {
	return c.shardOf(k.salt ^ uint64(k.asn)<<32 ^ uint64(uint32(k.city)))
}

func (c *routingCache) siteShard(k siteKey) *routingShard {
	h := uint64(uint32(k.tgID))<<32 ^ uint64(uint32(k.city))
	if k.v6 {
		h ^= 1 << 63
	}
	return c.shardOf(h)
}

// lookupReply returns the cached reply catchment for k, if present.
func (c *routingCache) lookupReply(k replyKey) (replyVal, bool) {
	sh := c.replyShard(k)
	sh.mu.RLock()
	v, ok := sh.reply[k]
	sh.mu.RUnlock()
	if t := c.tel; t != nil {
		countLookup(&t.cacheReply, uint64(k.asn)<<32^uint64(uint32(k.city)), ok)
	}
	return v, ok
}

// storeReply memoises a computed reply catchment.
func (c *routingCache) storeReply(k replyKey, v replyVal) {
	sh := c.replyShard(k)
	sh.mu.Lock()
	sh.reply[k] = v
	sh.mu.Unlock()
}

// lookupSite returns the cached target-catchment site for k, if present.
func (c *routingCache) lookupSite(k siteKey) (uint16, bool) {
	sh := c.siteShard(k)
	sh.mu.RLock()
	v, ok := sh.site[k]
	sh.mu.RUnlock()
	if t := c.tel; t != nil {
		countLookup(&t.cacheSite, uint64(uint32(k.tgID)), ok)
	}
	return v, ok
}

// storeSite memoises a computed target-catchment site.
func (c *routingCache) storeSite(k siteKey, v uint16) {
	sh := c.siteShard(k)
	sh.mu.Lock()
	sh.site[k] = v
	sh.mu.Unlock()
}
