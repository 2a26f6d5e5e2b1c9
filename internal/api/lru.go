package api

import "container/list"

// lru is a small bounded least-recently-used map: the one primitive
// behind the server's day and events-list caches, so eviction
// behaviour has a single implementation. Being unexported, it cannot be
// built outside this package, so no other layer stacks a cache on it. It
// is not safe for concurrent use; the Server guards its caches with its
// own lock.
type lru[K comparable, V any] struct {
	cap   int
	order *list.List // front = most recent; values are *lruEntry[K, V]
	byKey map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRU returns an empty cache bounded to max(1, capacity) entries.
func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[K, V]{cap: capacity, order: list.New(), byKey: make(map[K]*list.Element)}
}

// Get returns the cached value and marks it most recently used.
func (l *lru[K, V]) Get(k K) (V, bool) {
	el, ok := l.byKey[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put inserts or refreshes a value, evicting the least recently used
// entries beyond the bound.
func (l *lru[K, V]) Put(k K, v V) {
	if el, ok := l.byKey[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		l.order.MoveToFront(el)
		return
	}
	l.byKey[k] = l.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	for l.order.Len() > l.cap {
		el := l.order.Back()
		l.order.Remove(el)
		delete(l.byKey, el.Value.(*lruEntry[K, V]).key)
	}
}
