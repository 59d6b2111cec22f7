// Tiered content store: the sharded RAM LRU (Store) as hot tier over a
// file-backed slot arena (Arena) as cold tier, in the shape of ndn-dpdk's
// memory+disk content-store hierarchy.
//
// The contract that shapes everything here is that a forwarder must never
// block on disk. The hot path sees exactly three cheap operations:
// AppendGetHot (a shard-locked map hit copied into the caller's buffer,
// zero allocations), ColdContains (one mutex + map probe on the in-RAM
// cold index), and RequestCold (mark the key pending and hand it to the
// reader pool). The actual pread happens on a reader goroutine, which
// re-injects the recovered payload through the router's normal ingress —
// the parked interest is satisfied by the same F_PIT consume/replicate
// machinery that handles any other data packet, and the payload is
// promoted back into the hot tier by the same cache insert.
//
// Population is eviction-driven with insert-on-second-hit admission: the
// hot LRU's eviction hook hands the evicted entry over with a "was it ever
// touched after insert" bit, and only touched entries are written to the
// arena. One-hit-wonder churn — the bulk of any Zipf tail — therefore
// never costs a disk write.
package cs

import (
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"dip/internal/nhash"
)

// HistBuckets is the cold-read latency histogram width: log2 nanosecond
// buckets, mirroring internal/telemetry's layout so the export layer can
// reuse telemetry.BucketUpper for the bucket edges.
const HistBuckets = 36

// coldBucketOf maps a nanosecond duration to its log2 bucket, exactly as
// telemetry does for FN latencies.
func coldBucketOf(ns int64) int {
	b := 0
	for ns > 1 && b < HistBuckets-1 {
		ns >>= 1
		b++
	}
	return b
}

// ColdConfig sizes and wires the cold tier.
type ColdConfig struct {
	// Path is the arena backing file; empty means an unlinked temp file
	// that vanishes with the process.
	Path string
	// Slots is the arena slot count (required, > 0).
	Slots int
	// SlotSize is the payload capacity per slot in bytes (default 2048).
	SlotSize int
	// Readers sets the async reader pool size. 0 selects synchronous mode:
	// RequestCold performs the read and re-injection inline on the caller's
	// goroutine — the deterministic choice for virtual-time simulations,
	// where a background goroutine would race the sim clock.
	Readers int
	// PendingCap bounds the number of in-flight cold reads; beyond it
	// RequestCold refuses and the interest falls through as a miss
	// (default 1024).
	PendingCap int
	// SpillQueue bounds the eviction→disk handoff queue in async mode;
	// when full, evicted entries are dropped rather than stalling the
	// hot-tier shard lock (default 256).
	SpillQueue int
	// Now supplies timestamps for the cold-read latency histogram
	// (default wall clock). Simulations pass their virtual clock.
	Now func() int64
	// ReadGate, when set, is invoked immediately before every slot pread.
	// It exists for tests: blocking in the gate holds cold reads in flight
	// while the test proves the hot path stays unblocked.
	ReadGate func()
}

// coldEntry is the in-RAM index record for one arena slot. Length and
// checksum double as the identity of the stored bytes, letting Put detect
// whether a re-inserted object already matches its cold copy (promotion)
// or has genuinely changed (stale slot to free).
type coldEntry struct {
	slot     int
	length   uint32
	checksum uint32
}

type spillReq[K comparable] struct {
	key  K
	data []byte
}

// reinjectFn receives a completed cold read: the key, the payload (owned
// by the callee), and the read's start/end timestamps for span emission.
type reinjectFn[K comparable] func(k K, data []byte, readStartNs, readEndNs int64)

// TierStats is a point-in-time snapshot of both tiers.
type TierStats struct {
	HotHits         uint64 // GetHot successes
	ColdHits        uint64 // ColdContains successes (cold index had the key)
	Misses          uint64 // ColdContains failures: neither tier holds the key
	Spilled         uint64 // evictions written to the arena
	SpillDropped    uint64 // evictions lost: queue full, arena full, too large, or write error
	AdmitFiltered   uint64 // evictions rejected by insert-on-second-hit admission
	ReadErrors      uint64 // cold reads that failed verification or raced a removal
	Reinjected      uint64 // cold reads completed and delivered
	PendingRejected uint64 // RequestCold refusals (pending table at capacity)
	PendingReads    int    // cold reads currently in flight
	ColdSlotsUsed   int
	ColdSlots       int
	ColdReadCount   uint64
	ColdReadTotalNs uint64
	ColdReadHist    [HistBuckets]uint64 // log2-ns buckets, telemetry layout
	HotLen          int
	HotBytes        int
}

// Tiered composes a hot Store with a cold Arena. It is safe for concurrent
// use. Lock order is always hot-shard lock → Tiered.mu, never the reverse;
// the re-inject callback is invoked with no Tiered locks held so it may
// freely re-enter the store (and will, via the router's cache insert).
type Tiered[K comparable] struct {
	store *Store[K]
	arena *Arena

	mu      sync.Mutex
	index   map[K]coldEntry
	pending map[K]struct{}
	closed  bool

	pendingCap int
	spills     chan spillReq[K] // nil in synchronous mode
	readq      chan K           // nil in synchronous mode
	wg         sync.WaitGroup

	reinject atomic.Pointer[reinjectFn[K]]
	now      func() int64
	readGate func()

	hotHits         atomic.Uint64
	coldHits        atomic.Uint64
	misses          atomic.Uint64
	spilled         atomic.Uint64
	spillDropped    atomic.Uint64
	admitFiltered   atomic.Uint64
	readErrors      atomic.Uint64
	reinjected      atomic.Uint64
	pendingRejected atomic.Uint64
	readCount       atomic.Uint64
	readTotalNs     atomic.Uint64
	readHist        [HistBuckets]atomic.Uint64
}

// NewTiered layers a cold arena under hot, installing the eviction hook
// that feeds admission. The hot store must not already belong to another
// tiered store. Callers own Close.
func NewTiered[K comparable](hot *Store[K], cfg ColdConfig) (*Tiered[K], error) {
	if cfg.SlotSize <= 0 {
		cfg.SlotSize = 2048
	}
	arena, err := NewArena(cfg.Path, cfg.Slots, cfg.SlotSize)
	if err != nil {
		return nil, err
	}
	if cfg.PendingCap <= 0 {
		cfg.PendingCap = 1024
	}
	if cfg.SpillQueue <= 0 {
		cfg.SpillQueue = 256
	}
	t := &Tiered[K]{
		store:      hot,
		arena:      arena,
		index:      make(map[K]coldEntry),
		pending:    make(map[K]struct{}),
		pendingCap: cfg.PendingCap,
		now:        cfg.Now,
		readGate:   cfg.ReadGate,
	}
	if t.now == nil {
		t.now = func() int64 { return time.Now().UnixNano() }
	}
	if cfg.Readers > 0 {
		t.spills = make(chan spillReq[K], cfg.SpillQueue)
		t.readq = make(chan K, cfg.PendingCap)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for req := range t.spills {
				t.writeCold(req.key, req.data)
			}
		}()
		for i := 0; i < cfg.Readers; i++ {
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				for k := range t.readq {
					t.completeRead(k)
				}
			}()
		}
	}
	hot.onEvict = t.handleEvict
	return t, nil
}

// SetReinject installs the completion callback for cold reads. In async
// mode it runs on a reader goroutine; in synchronous mode it runs inline
// inside RequestCold. Ownership of the payload passes to the callback.
func (t *Tiered[K]) SetReinject(fn func(k K, data []byte, readStartNs, readEndNs int64)) {
	f := reinjectFn[K](fn)
	t.reinject.Store(&f)
}

// Hot returns the RAM tier.
func (t *Tiered[K]) Hot() *Store[K] { return t.store }

// AppendGetHot probes the RAM tier only, appending a hit's payload to dst
// under the shard lock (see Store.AppendGet): the fast path a forwarder
// runs under its packet budget, allocation-free when dst has room.
func (t *Tiered[K]) AppendGetHot(dst []byte, k K) ([]byte, bool) {
	dst, ok := t.store.AppendGet(dst, k)
	if ok {
		t.hotHits.Add(1)
	}
	return dst, ok
}

// ColdContains reports whether the cold index holds k, counting the
// outcome as a cold hit or a full miss. It touches only the in-RAM index —
// no disk.
func (t *Tiered[K]) ColdContains(k K) bool {
	t.mu.Lock()
	_, ok := t.index[k]
	t.mu.Unlock()
	if ok {
		t.coldHits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return ok
}

// RequestCold schedules retrieval of k from the arena, reporting whether a
// read is (now or already) in flight. The caller parks the interest in its
// PIT before calling, exactly as for an upstream fetch; when the read
// completes, the re-inject callback carries the payload back through the
// normal data path. In synchronous mode (Readers 0) the read and callback
// run before RequestCold returns. A false return means the pending table
// is full or the entry vanished — treat it as a miss.
func (t *Tiered[K]) RequestCold(k K) bool {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false
	}
	if _, ok := t.index[k]; !ok {
		t.mu.Unlock()
		return false
	}
	if _, inflight := t.pending[k]; inflight {
		t.mu.Unlock()
		return true // the in-flight read will satisfy this interest too
	}
	if len(t.pending) >= t.pendingCap {
		t.mu.Unlock()
		t.pendingRejected.Add(1)
		return false
	}
	t.pending[k] = struct{}{}
	if t.readq != nil {
		// Sends happen only under mu and Close flips closed under mu
		// before closing the channel, so this cannot race a close.
		select {
		case t.readq <- k:
			t.mu.Unlock()
			return true
		default:
			delete(t.pending, k)
			t.mu.Unlock()
			t.pendingRejected.Add(1)
			return false
		}
	}
	t.mu.Unlock()
	t.completeRead(k)
	return true
}

// Put inserts into the hot tier (possibly spilling an eviction to cold).
// If a cold copy of k exists with different bytes, its slot is freed — but
// a byte-identical cold copy is kept, so promoting a cold object back to
// hot does not churn the disk.
func (t *Tiered[K]) Put(k K, data []byte) {
	t.store.Put(k, data)
	t.mu.Lock()
	if ce, ok := t.index[k]; ok {
		if ce.length != uint32(len(data)) || ce.checksum != crc32.Checksum(data, castagnoli) {
			delete(t.index, k)
			t.arena.Free(ce.slot)
		}
	}
	t.mu.Unlock()
}

// Remove purges k from both tiers, reporting whether either held it.
func (t *Tiered[K]) Remove(k K) bool {
	hot := t.store.Remove(k)
	t.mu.Lock()
	ce, cold := t.index[k]
	if cold {
		delete(t.index, k)
		t.arena.Free(ce.slot)
	}
	t.mu.Unlock()
	return hot || cold
}

// Len returns the hot-tier entry count (the CSStats view exported on
// /metrics as the store size; cold occupancy is reported separately).
func (t *Tiered[K]) Len() int { return t.store.Len() }

// Bytes returns the hot-tier payload bytes.
func (t *Tiered[K]) Bytes() int { return t.store.Bytes() }

// ColdLen returns the cold-index entry count.
func (t *Tiered[K]) ColdLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.index)
}

// Stats snapshots both tiers.
func (t *Tiered[K]) Stats() TierStats {
	st := TierStats{
		HotHits:         t.hotHits.Load(),
		ColdHits:        t.coldHits.Load(),
		Misses:          t.misses.Load(),
		Spilled:         t.spilled.Load(),
		SpillDropped:    t.spillDropped.Load(),
		AdmitFiltered:   t.admitFiltered.Load(),
		ReadErrors:      t.readErrors.Load(),
		Reinjected:      t.reinjected.Load(),
		PendingRejected: t.pendingRejected.Load(),
		ColdSlots:       t.arena.Slots(),
		ColdSlotsUsed:   t.arena.Used(),
		ColdReadCount:   t.readCount.Load(),
		ColdReadTotalNs: t.readTotalNs.Load(),
	}
	for i := range t.readHist {
		st.ColdReadHist[i] = t.readHist[i].Load()
	}
	t.mu.Lock()
	st.PendingReads = len(t.pending)
	t.mu.Unlock()
	st.HotLen = t.store.Len()
	st.HotBytes = t.store.Bytes()
	return st
}

// Close stops the worker pool and releases the arena. No Put/RequestCold
// may run after Close returns.
func (t *Tiered[K]) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	if t.spills != nil {
		close(t.spills)
	}
	if t.readq != nil {
		close(t.readq)
	}
	t.wg.Wait()
	return t.arena.Close()
}

// handleEvict is the hot store's eviction hook. Runs with the evicting
// shard's lock held, so it must stay O(1) and never call back into the
// hot store: async mode does a non-blocking queue send, synchronous mode
// writes the slot inline (acceptable under a virtual clock).
func (t *Tiered[K]) handleEvict(k K, data []byte, touched bool) {
	if !touched {
		// Insert-on-second-hit: cached once, never asked for again —
		// churn that must not cost a disk write.
		t.admitFiltered.Add(1)
		return
	}
	if t.spills != nil {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return
		}
		select {
		case t.spills <- spillReq[K]{key: k, data: data}:
			t.mu.Unlock()
		default:
			t.mu.Unlock()
			t.spillDropped.Add(1)
		}
		return
	}
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if !closed {
		t.writeCold(k, data)
	}
}

// writeCold stores one evicted entry in the arena and indexes it. A
// byte-identical cold copy already on disk is left untouched.
func (t *Tiered[K]) writeCold(k K, data []byte) {
	if len(data) > t.arena.SlotSize() {
		t.spillDropped.Add(1)
		return
	}
	sum := crc32.Checksum(data, castagnoli)
	t.mu.Lock()
	ce, have := t.index[k]
	t.mu.Unlock()
	if have && ce.length == uint32(len(data)) && ce.checksum == sum {
		t.spilled.Add(1) // logically spilled; physically already there
		return
	}
	slot := ce.slot
	if !have {
		s, ok := t.arena.Alloc()
		if !ok {
			t.spillDropped.Add(1)
			return
		}
		slot = s
	}
	if err := t.arena.WriteSlot(slot, nhash.Of(k), data); err != nil {
		if !have {
			t.arena.Free(slot)
		}
		t.spillDropped.Add(1)
		return
	}
	t.mu.Lock()
	t.index[k] = coldEntry{slot: slot, length: uint32(len(data)), checksum: sum}
	t.mu.Unlock()
	t.spilled.Add(1)
}

// completeRead performs the pread for one pending key, then hands the
// payload to the re-inject callback (or, with no callback installed,
// promotes it straight into the hot tier). Verification failures drop the
// slot; the parked interest recovers through PIT expiry and consumer
// retransmission, the same machinery that covers a lost upstream fetch.
func (t *Tiered[K]) completeRead(k K) {
	start := t.now()
	t.mu.Lock()
	ce, ok := t.index[k]
	t.mu.Unlock()
	var data []byte
	var err error
	if ok {
		if t.readGate != nil {
			t.readGate()
		}
		data, err = t.arena.ReadSlot(nil, ce.slot, nhash.Of(k))
	}
	end := t.now()
	t.mu.Lock()
	delete(t.pending, k)
	t.mu.Unlock()
	if !ok || err != nil {
		t.readErrors.Add(1)
		if ok {
			// Poisoned or torn slot: drop it so the next interest takes
			// the normal upstream path instead of spinning on bad bytes.
			t.mu.Lock()
			if cur, still := t.index[k]; still && cur.slot == ce.slot {
				delete(t.index, k)
				t.arena.Free(ce.slot)
			}
			t.mu.Unlock()
		}
		return
	}
	d := end - start
	if d < 0 {
		d = 0
	}
	t.readCount.Add(1)
	t.readTotalNs.Add(uint64(d))
	t.readHist[coldBucketOf(d)].Add(1)
	t.reinjected.Add(1)
	if fn := t.reinject.Load(); fn != nil {
		(*fn)(k, data, start, end)
		return
	}
	t.store.Put(k, data)
}
