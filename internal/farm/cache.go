package farm

import (
	"container/list"
	"sync"
)

// imageCache is a byte-budgeted LRU of warm checkpoint images keyed by
// cacheKey (scenario hash × warm-up). Concurrent requests for
// the same missing key share one build (single-flight): the first
// caller warms, the rest wait.
type imageCache struct {
	mu       sync.Mutex
	maxBytes int64
	size     int64
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*inflightBuild

	// hits/misses are cumulative counters for the stats endpoint.
	hits, misses int64
}

type cacheEntry struct {
	key  string
	data []byte
}

type inflightBuild struct {
	done chan struct{}
	data []byte
	err  error
}

func newImageCache(maxBytes int64) *imageCache {
	return &imageCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*inflightBuild),
	}
}

// get returns the cached image for key, building it with build on a
// miss. The second return reports whether it was a cache hit. Build
// errors are not cached.
func (c *imageCache) get(key string, build func() ([]byte, error)) ([]byte, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		data := el.Value.(*cacheEntry).data
		c.mu.Unlock()
		return data, true, nil
	}
	if fl, ok := c.inflight[key]; ok {
		// Someone is already warming this image: count as a hit (no
		// extra warm-up is paid) and wait for it.
		c.hits++
		c.mu.Unlock()
		<-fl.done
		return fl.data, true, fl.err
	}
	fl := &inflightBuild{done: make(chan struct{})}
	c.inflight[key] = fl
	c.misses++
	c.mu.Unlock()

	fl.data, fl.err = build()
	close(fl.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.insert(key, fl.data)
	}
	c.mu.Unlock()
	return fl.data, false, fl.err
}

// insert adds an entry and evicts from the LRU tail while over budget.
// Called with mu held.
func (c *imageCache) insert(key string, data []byte) {
	if int64(len(data)) > c.maxBytes {
		return // an image larger than the whole budget is never cached
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, data: data})
	c.size += int64(len(data))
	for c.size > c.maxBytes {
		el := c.ll.Back()
		ent := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.entries, ent.key)
		c.size -= int64(len(ent.data))
	}
}

// stats snapshots the cache counters.
func (c *imageCache) stats() (entries int, bytes, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.size, c.hits, c.misses
}
