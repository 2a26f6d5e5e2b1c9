// Package lru is a small bounded least-recently-used cache — the one
// primitive behind the API server's decoded-day and events-list caches,
// so eviction behaviour has a single implementation. It is not safe for
// concurrent use; the owner guards its caches with its own lock.
package lru

import "container/list"

// Cache is a bounded least-recently-used map.
type Cache[K comparable, V any] struct {
	cap   int
	order *list.List // front = most recent; values are *pair[K, V]
	byKey map[K]*list.Element
}

type pair[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache bounded to max(1, capacity) entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{cap: capacity, order: list.New(), byKey: make(map[K]*list.Element)}
}

// Get returns the cached value and marks it most recently used.
func (l *Cache[K, V]) Get(k K) (V, bool) {
	el, ok := l.byKey[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*pair[K, V]).val, true
}

// Put inserts or refreshes a value, evicting the least recently used
// entries beyond the bound.
func (l *Cache[K, V]) Put(k K, v V) {
	if el, ok := l.byKey[k]; ok {
		el.Value.(*pair[K, V]).val = v
		l.order.MoveToFront(el)
		return
	}
	l.byKey[k] = l.order.PushFront(&pair[K, V]{key: k, val: v})
	for l.order.Len() > l.cap {
		el := l.order.Back()
		l.order.Remove(el)
		delete(l.byKey, el.Value.(*pair[K, V]).key)
	}
}

// Len reports the number of cached entries.
func (l *Cache[K, V]) Len() int { return l.order.Len() }
