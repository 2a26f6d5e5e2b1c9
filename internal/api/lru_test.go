package api

import "testing"

// TestLRUBounded pins the bound and the eviction order both of the
// server's caches rely on: at most capacity entries, least recently used
// (by Get or Put) evicted first.
func TestLRUBounded(t *testing.T) {
	c := newLRU[int, string](3)
	for day := 0; day < 20; day++ {
		c.Put(day, "doc")
		if c.order.Len() > 3 {
			t.Fatalf("cache holds %d entries after %d puts, bound is 3", c.order.Len(), day+1)
		}
	}
	for _, day := range []int{17, 18, 19} {
		if _, ok := c.Get(day); !ok {
			t.Fatalf("recent entry %d evicted", day)
		}
	}
	if _, ok := c.Get(16); ok {
		t.Fatal("entry beyond the bound survived")
	}
	// A Get refreshes recency: with 17 read last, the next two inserts
	// evict 18 and 19 and keep 17.
	c.Get(17)
	c.Put(20, "doc")
	c.Put(21, "doc")
	if _, ok := c.Get(17); !ok {
		t.Fatal("recently read entry evicted before older ones")
	}
	if _, ok := c.Get(18); ok {
		t.Fatal("least recently used entry survived two inserts")
	}
	// Refreshing an existing key replaces the value without growing.
	c.Put(17, "new")
	if v, _ := c.Get(17); v != "new" || c.order.Len() != 3 {
		t.Fatalf("refresh: value %q, len %d", v, c.order.Len())
	}
	if newLRU[int, int](0).cap != 1 {
		t.Fatal("capacity below 1 not clamped to 1")
	}
}
