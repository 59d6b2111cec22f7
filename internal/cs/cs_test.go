package cs

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPutGet(t *testing.T) {
	s := New[string](4)
	s.Put("a", []byte("alpha"))
	got, ok := s.Get("a")
	if !ok || !bytes.Equal(got, []byte("alpha")) {
		t.Errorf("Get = %q %v", got, ok)
	}
	if _, ok := s.Get("b"); ok {
		t.Error("hit on absent key")
	}
	if s.Len() != 1 || s.Bytes() != 5 {
		t.Errorf("Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
}

func TestPutCopies(t *testing.T) {
	s := New[string](4)
	buf := []byte("data")
	s.Put("k", buf)
	buf[0] = 'X'
	got, _ := s.Get("k")
	if !bytes.Equal(got, []byte("data")) {
		t.Error("store aliased caller buffer")
	}
}

func TestLRUEviction(t *testing.T) {
	s := New[int](2)
	s.Put(1, []byte("one"))
	s.Put(2, []byte("two"))
	s.Get(1) // make 1 most recent
	s.Put(3, []byte("three"))
	if _, ok := s.Get(2); ok {
		t.Error("LRU entry 2 not evicted")
	}
	if _, ok := s.Get(1); !ok {
		t.Error("recently used entry 1 evicted")
	}
	if _, ok := s.Get(3); !ok {
		t.Error("new entry 3 missing")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestUpdateRefreshes(t *testing.T) {
	s := New[int](2)
	s.Put(1, []byte("one"))
	s.Put(2, []byte("two"))
	s.Put(1, []byte("ONE!")) // refresh + resize
	s.Put(3, []byte("three"))
	if _, ok := s.Get(2); ok {
		t.Error("entry 2 should have been evicted")
	}
	got, ok := s.Get(1)
	if !ok || !bytes.Equal(got, []byte("ONE!")) {
		t.Errorf("Get(1) = %q %v", got, ok)
	}
	if s.Bytes() != 4+5 {
		t.Errorf("Bytes = %d", s.Bytes())
	}
}

func TestRemove(t *testing.T) {
	s := New[int](4)
	s.Put(1, []byte("one"))
	if !s.Remove(1) {
		t.Error("Remove failed")
	}
	if s.Remove(1) {
		t.Error("double Remove")
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Errorf("Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
}

func TestAppendGetCopiesOut(t *testing.T) {
	s := New[int](4)
	s.Put(1, []byte("one"))
	dst := []byte("pre:")
	got, ok := s.AppendGet(dst, 1)
	if !ok || string(got) != "pre:one" {
		t.Fatalf("AppendGet = %q %v", got, ok)
	}
	if miss, ok := s.AppendGet(dst, 2); ok || string(miss) != "pre:" {
		t.Errorf("miss = %q %v, want dst unchanged", miss, ok)
	}
	// The copy is the caller's: refreshing and recycling the entry's
	// buffer must not reach it.
	s.Put(1, []byte("ONE"))
	for i := 2; i < 8; i++ {
		s.Put(i, []byte("evicts"))
	}
	if string(got) != "pre:one" {
		t.Errorf("copy changed under later writes: %q", got)
	}
}

// TestPutFullRecyclesTail pins the recycle-on-insert contract: a new name
// in a full shard replaces exactly the LRU entry, with byte accounting
// following the payload lengths, whatever the old and new sizes.
func TestPutFullRecyclesTail(t *testing.T) {
	s := New[int](2)
	s.Put(1, []byte("a-long-payload"))
	s.Put(2, []byte("bb"))
	s.Put(3, []byte("c"))                 // evicts 1, reusing its larger buffer
	s.Put(4, []byte("a-longer-payload!")) // evicts 2, growing its buffer
	if _, ok := s.Get(1); ok {
		t.Error("LRU entry 1 survived")
	}
	if _, ok := s.Get(2); ok {
		t.Error("LRU entry 2 survived")
	}
	for k, want := range map[int]string{3: "c", 4: "a-longer-payload!"} {
		if got, ok := s.AppendGet(nil, k); !ok || string(got) != want {
			t.Errorf("entry %d = %q %v, want %q", k, got, ok, want)
		}
	}
	if s.Len() != 2 || s.Bytes() != 1+17 {
		t.Errorf("Len=%d Bytes=%d, want 2 and 18", s.Len(), s.Bytes())
	}
}

// TestEvictHookOwnsPayload pins the exception to recycling: with an
// eviction hook installed (the tiered spill), the evicted buffer is the
// hook's, so refilling the recycled entry must not write into it.
func TestEvictHookOwnsPayload(t *testing.T) {
	s := New[int](1)
	var spilled []byte
	s.onEvict = func(k int, data []byte, _ bool) { spilled = data }
	s.Put(1, []byte("first"))
	s.Put(2, []byte("XXXXX"))
	if string(spilled) != "first" {
		t.Fatalf("hook got %q, want %q", spilled, "first")
	}
	s.Put(3, []byte("YYYYY"))
	if got, _ := s.AppendGet(nil, 3); string(got) != "YYYYY" {
		t.Errorf("entry 3 = %q", got)
	}
}

// TestAppendGetRacesPut runs AppendGet against concurrent Puts on one
// shard: refreshes of the name being read with payloads of changing
// length, and inserts of new names that evict and recycle entries. Every
// hit must be one complete inserted payload. Run under -race, a read of
// the entry's buffer outside the shard lock (Get, then copy) fails this.
func TestAppendGetRacesPut(t *testing.T) {
	const names = 8
	s := New[int](4)
	versions := make([][]byte, 4)
	for v := range versions {
		versions[v] = bytes.Repeat([]byte{byte('a' + v)}, 200+100*v)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			s.Put(i%names, versions[i%len(versions)])
		}
	}()
	defer wg.Wait()
	defer stop.Store(true)
	var buf []byte
	for i, hits := 0, 0; hits < 5000; i++ {
		if i == 10_000_000 {
			t.Fatalf("only %d hits in %d reads", hits, i)
		}
		var ok bool
		if buf, ok = s.AppendGet(buf[:0], i%2); !ok {
			continue
		}
		hits++
		if v := int(buf[0] - 'a'); v >= len(versions) || !bytes.Equal(buf, versions[v]) {
			t.Fatalf("hit %d: %d-byte copy is no complete payload", hits, len(buf))
		}
	}
}

func TestDisabledCache(t *testing.T) {
	s := New[int](0)
	s.Put(1, []byte("x"))
	if _, ok := s.Get(1); ok {
		t.Error("disabled cache stored data")
	}
}

func TestConcurrent(t *testing.T) {
	s := New[int](128)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Put(i%200, []byte{byte(w)})
				s.Get(i % 200)
				if i%50 == 0 {
					s.Remove(i % 200)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > 128 {
		t.Errorf("capacity exceeded: %d", s.Len())
	}
}

// TestShardedCapacityExact pins the remainder-distribution contract: the
// per-shard bounds sum to exactly the requested capacity, whatever the
// shard count — never the truncated capacity/n*n, never more.
func TestShardedCapacityExact(t *testing.T) {
	cases := []struct {
		capacity, shards int
		wantShards       int
	}{
		{10, 4, 4},  // the motivating bug: 10/4*4 = 8 entries held, 2 lost
		{7, 4, 4},   // remainder 3 spread over the leading shards
		{8, 4, 4},   // exact division: every shard equal
		{1, 4, 1},   // shard count clamps so no shard holds zero
		{3, 8, 2},   // clamp to capacity/n >= 1
		{129, 8, 8}, // big remainder-1 case
		{64, 1, 1},  // single shard unchanged
		{0, 4, 4},   // disabled cache keeps requested shards, zero cap
	}
	for _, tc := range cases {
		s := NewSharded[int](tc.capacity, tc.shards)
		if got := s.NumShards(); got != tc.wantShards {
			t.Errorf("NewSharded(%d,%d): shards = %d, want %d", tc.capacity, tc.shards, got, tc.wantShards)
		}
		total := 0
		for i := range s.shards {
			total += s.shards[i].cap
		}
		want := tc.capacity
		if want < 0 {
			want = 0
		}
		if total != want {
			t.Errorf("NewSharded(%d,%d): shard caps sum to %d, want %d", tc.capacity, tc.shards, total, want)
		}
		// Overfill and confirm the live bound matches the contract too.
		if tc.capacity > 0 {
			for i := 0; i < tc.capacity*3; i++ {
				s.Put(i, []byte("x"))
			}
			if s.Len() > tc.capacity {
				t.Errorf("NewSharded(%d,%d): holds %d entries, exceeds requested capacity", tc.capacity, tc.shards, s.Len())
			}
		}
	}
}

func BenchmarkPutGet(b *testing.B) {
	s := New[uint32](4096)
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := uint32(i) % 8192
		s.Put(k, payload)
		s.Get(k)
	}
}

// BenchmarkGetHitSingleShard measures the default-store hit path, which
// skips the key hash entirely (mask==0 routes every key to shard 0).
// Compare against BenchmarkGetHitSharded to see the hash cost the fast
// path removes.
func BenchmarkGetHitSingleShard(b *testing.B) {
	s := New[uint32](1024)
	for i := uint32(0); i < 1024; i++ {
		s.Put(i, []byte("payload"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(uint32(i) & 1023)
	}
}

// BenchmarkGetHitSharded is the same hit pattern through a sharded store,
// where every lookup must hash the key to pick its shard.
func BenchmarkGetHitSharded(b *testing.B) {
	s := NewSharded[uint32](1024, 8)
	for i := uint32(0); i < 1024; i++ {
		s.Put(i, []byte("payload"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(uint32(i) & 1023)
	}
}
