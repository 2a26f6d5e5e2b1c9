package netsim

import (
	"sync"
	"sync/atomic"
)

// The two memoised routing primitives. Reply catchments live in a map
// split into 64 hash-indexed shards, each with its own RWMutex, so readers
// of a warm cache only ever take a read lock on one shard and concurrent
// probing scales near-linearly. Target catchments are one dense row per
// multi-site target, one atomic entry per city: a target finds its row
// with one sharded lookup (once per probe train or GCD fan), and each
// entry is filled the first time a packet from that city is routed. Both
// hold pure functions of their key and the world seed, so a racing
// duplicate computation writes the same value and determinism is
// unaffected.

const (
	cacheShardBits = 6
	numCacheShards = 1 << cacheShardBits // 64
)

type routingShard struct {
	mu    sync.RWMutex
	reply map[replyKey]replyVal
	rows  map[uint64]siteRow
}

// siteRow holds one multi-site target's target catchments: entry c is 1 +
// the index of the site a packet from city c reaches, 0 until resolved.
type siteRow []atomic.Uint32

// routingCache is the sharded memoisation store embedded in World.
// tel, when installed via World.Instrument, receives hit/miss
// accounting: one packed striped add per reply-catchment lookup, and one
// per probe, train or GCD fan for the row entries it resolved (siteCount).
// Counting never changes what a lookup returns.
type routingCache struct {
	shards [numCacheShards]routingShard
	tel    *telemetry
}

// init allocates the shard maps (called once from New).
func (c *routingCache) init() {
	for i := range c.shards {
		c.shards[i].reply = make(map[replyKey]replyVal)
		c.shards[i].rows = make(map[uint64]siteRow)
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

// row returns the catchment row stored under key (a target's family and
// ID), creating an empty one of n entries on first use.
func (c *routingCache) row(key uint64, n int) siteRow {
	sh := c.shardOf(key)
	sh.mu.RLock()
	r := sh.rows[key]
	sh.mu.RUnlock()
	if r != nil {
		return r
	}
	sh.mu.Lock()
	if r = sh.rows[key]; r == nil {
		r = make(siteRow, n)
		sh.rows[key] = r
	}
	sh.mu.Unlock()
	return r
}
