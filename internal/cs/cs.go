// Package cs implements an LRU content store, the caching extension the
// paper sketches in footnote 2: "for the forwarding devices that support
// caching, the FIB matching module can be slightly modified to first match
// the local content store and then match the FIB".
//
// The store can be split into power-of-two shards keyed by name hash, each
// with its own lock, LRU list, and capacity slice, so concurrent forwarding
// workers only contend when their names hash together. Recency is then
// tracked per shard: eviction is LRU within a shard and approximately LRU
// globally, the standard trade sharded caches make. New keeps a single
// shard (exact LRU, the right default for the small caches tests and topo
// scenarios build); NewSharded spreads the capacity for contended routers.
//
// The store owns its entries' bytes: Put copies in, AppendGet copies out
// under the shard lock, and a full shard recycles its LRU entry's buffer
// for the next new name, so the forwarding path neither allocates nor
// shares memory with the store.
package cs

import (
	"container/list"
	"sync"

	"dip/internal/nhash"
)

// Store is a bounded LRU cache from content keys to payloads. It is safe
// for concurrent use.
type Store[K comparable] struct {
	shards []csShard[K]
	mask   uint64
	// onEvict, when set (by the tiered store in this package), receives
	// entries pushed out by the capacity bound. Ownership of data transfers
	// to the handler — the store holds no reference after the call — and
	// touched reports whether the entry was ever hit after insertion (the
	// insert-on-second-hit admission signal). Called with the shard lock
	// held; handlers must not call back into the store.
	onEvict func(k K, data []byte, touched bool)
}

type csShard[K comparable] struct {
	mu    sync.Mutex
	cap   int
	bytes int
	size  int
	ll    *list.List
	index map[K]*list.Element
}

type item[K comparable] struct {
	key  K
	data []byte
	// hits counts touches after insertion (Get hits and Put refreshes):
	// 0 means the entry was cached once and never asked for again.
	hits uint32
}

// New returns a store holding at most capacity entries in one shard (exact
// global LRU). capacity ≤ 0 is treated as a disabled cache that stores
// nothing.
func New[K comparable](capacity int) *Store[K] {
	return NewSharded[K](capacity, 1)
}

// NewSharded returns a store of at most capacity entries split over shards
// lock domains (rounded down to a power of two; also capped so every shard
// keeps at least one entry). The capacity divides across shards with the
// remainder spread one entry at a time over the leading shards, so the
// per-shard bounds sum to exactly the requested capacity — never more,
// never less. Eviction is LRU per shard.
func NewSharded[K comparable](capacity, shards int) *Store[K] {
	n := nhash.Pow2(shards)
	if capacity > 0 {
		for n > 1 && capacity/n < 1 {
			n /= 2
		}
	}
	s := &Store[K]{shards: make([]csShard[K], n), mask: uint64(n - 1)}
	base, rem := 0, 0
	if capacity > 0 {
		base, rem = capacity/n, capacity%n
	}
	for i := range s.shards {
		c := base
		if i < rem {
			c++
		}
		s.shards[i] = csShard[K]{
			cap:   c,
			ll:    list.New(),
			index: make(map[K]*list.Element),
		}
	}
	return s
}

// NumShards returns the shard count (a power of two).
func (s *Store[K]) NumShards() int { return len(s.shards) }

func (s *Store[K]) shardOf(k K) *csShard[K] {
	// The default store has one shard (mask 0): every key lands on shard 0,
	// so hashing the key would be pure overhead on the hot hit path.
	if s.mask == 0 {
		return &s.shards[0]
	}
	return &s.shards[nhash.Of(k)&s.mask]
}

// Put caches data under k, copying it so the caller's buffer stays free for
// reuse. Existing entries are refreshed in place and moved to the front. A
// new name in a full shard takes over the LRU tail's list element and item
// and, unless an eviction hook takes the evicted payload, its payload buffer
// too; buffers grow to the largest payload seen, so once they have, inserts
// into a full store allocate nothing.
func (s *Store[K]) Put(k K, data []byte) {
	sh := s.shardOf(k)
	if sh.cap <= 0 {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.index[k]; ok {
		it := el.Value.(*item[K])
		sh.bytes += len(data) - len(it.data)
		it.data = append(it.data[:0], data...)
		it.hits++
		sh.ll.MoveToFront(el)
		return
	}
	var el *list.Element
	if sh.size < sh.cap {
		el = sh.ll.PushFront(&item[K]{})
		sh.size++
	} else {
		el = s.recycleOldest(sh)
	}
	it := el.Value.(*item[K])
	it.key, it.hits = k, 0
	it.data = append(it.data[:0], data...)
	sh.index[k] = el
	sh.bytes += len(data)
}

// AppendGet appends the cached payload for k to dst and refreshes its
// recency. The copy is made under the shard lock, so the returned bytes
// belong to the caller and no later write to the store can change them. On
// a miss dst is returned unchanged. This is the read the forwarding path
// uses: with a dst of sufficient capacity it allocates nothing.
func (s *Store[K]) AppendGet(dst []byte, k K) ([]byte, bool) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it := sh.touch(k)
	if it == nil {
		return dst, false
	}
	return append(dst, it.data...), true
}

// Get returns the cached payload for k and refreshes its recency. The
// result is a view of the store's own buffer, valid only until the next
// write to the store: a Put of any name may rewrite it in place, even
// while another goroutine reads it. Callers that keep the bytes, or run
// concurrently with writers, must use AppendGet.
func (s *Store[K]) Get(k K) ([]byte, bool) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it := sh.touch(k)
	if it == nil {
		return nil, false
	}
	return it.data, true
}

// Remove drops the entry for k, reporting whether it existed. Used by the
// content-poisoning response path: once F_pass flags a source, its cached
// objects are purged.
func (s *Store[K]) Remove(k K) bool {
	sh := s.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.index[k]
	if !ok {
		return false
	}
	sh.remove(el)
	return true
}

// Len returns the number of cached entries.
func (s *Store[K]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.size
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the total cached payload bytes.
func (s *Store[K]) Bytes() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// recycleOldest unlinks the shard's LRU entry from the index and moves its
// list element to the front for the caller to refill. When the eviction
// hook (tiered spill) is installed it takes ownership of the old payload,
// and the item starts over with no buffer. Called with the shard lock held
// on a full shard.
func (s *Store[K]) recycleOldest(sh *csShard[K]) *list.Element {
	el := sh.ll.Back()
	it := el.Value.(*item[K])
	delete(sh.index, it.key)
	sh.bytes -= len(it.data)
	if s.onEvict != nil {
		s.onEvict(it.key, it.data, it.hits > 0)
		it.data = nil
	}
	sh.ll.MoveToFront(el)
	return el
}

// touch looks k up, refreshing its recency and hit count. Called with the
// shard lock held; nil means a miss.
func (sh *csShard[K]) touch(k K) *item[K] {
	el, ok := sh.index[k]
	if !ok {
		return nil
	}
	sh.ll.MoveToFront(el)
	it := el.Value.(*item[K])
	it.hits++
	return it
}

func (sh *csShard[K]) remove(el *list.Element) {
	it := el.Value.(*item[K])
	sh.ll.Remove(el)
	delete(sh.index, it.key)
	sh.size--
	sh.bytes -= len(it.data)
}
