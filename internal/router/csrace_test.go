package router

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"dip/internal/core"
	"dip/internal/cs"
	"dip/internal/fib"
	"dip/internal/ops"
	"dip/internal/profiles"
)

// csVersions returns the payloads a writer cycles name through: versions
// of different lengths, each filled with a byte unique to (name, version),
// so a torn or interleaved copy matches none of them.
func csVersions(name uint32) [][]byte {
	vs := make([][]byte, 4)
	for v := range vs {
		vs[v] = bytes.Repeat([]byte{byte(name)*4 + byte(v)}, 900+300*v)
	}
	return vs
}

// cacheReplyChecker is a port that checks every cache reply it is sent
// against the complete payloads inserted under the reply's name.
type cacheReplyChecker struct {
	t        *testing.T
	versions map[uint32][][]byte
	replies  atomic.Int64
}

func (c *cacheReplyChecker) Send(pkt []byte) {
	v, err := core.ParseView(pkt)
	if err != nil {
		c.t.Errorf("unparsable cache reply: %v", err)
		return
	}
	name := binary.BigEndian.Uint32(v.Locations())
	for _, want := range c.versions[name] {
		if bytes.Equal(v.Payload(), want) {
			c.replies.Add(1)
			return
		}
	}
	c.t.Errorf("cache reply for %#x: %d-byte payload matches no inserted version", name, len(v.Payload()))
}

// TestCacheRaceServeGuarded serves interests with two forwarder goroutines
// over a sharded content store while a writer re-inserts the same names
// with payloads of changing length, and evicts and refills others. Every
// cache reply must be byte-equal to one complete inserted payload. Under
// -race this fails if a hit is read from the store's buffer outside the
// shard lock, or if a reply buffer is shared between forwarders.
func TestCacheRaceServeGuarded(t *testing.T) {
	const (
		hot       = 16 // names interests ask for, refreshed in place
		churn     = 64 // names the writer cycles to evict and recycle
		interests = 4000
	)
	cfg := baseCfg(t)
	cfg.NameFIB.AddUint32(0xAA000000, 8, fib.NextHop{Port: 1})
	cfg.ContentStore = cs.NewSharded[uint32](hot+churn/2, 4)
	checker := &cacheReplyChecker{t: t, versions: map[uint32][][]byte{}}
	for n := uint32(0); n < hot+churn; n++ {
		checker.versions[0xAA000000+n] = csVersions(n)
	}
	r := New(ops.NewRouterRegistry(cfg), Config{})
	r.AttachPort(checker)
	r.AttachPort(PortFunc(func([]byte) {})) // upstream: misses go here
	for n := uint32(0); n < hot; n++ {
		cfg.ContentStore.Put(0xAA000000+n, checker.versions[0xAA000000+n][0])
	}

	in := r.ServeGuarded(ServeConfig{Workers: 2, Batch: 8, HighDepth: 256, LowDepth: 256})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := uint32(i % hot)
			if i%3 == 2 {
				n = hot + uint32(i/3)%churn
			}
			name := 0xAA000000 + n
			cfg.ContentStore.Put(name, checker.versions[name][i%4])
		}
	}()
	for i := 0; i < interests; i++ {
		p := pkt(t, profiles.NDNInterest(0xAA000000+uint32(i%hot)), nil)
		for !in.Submit(p, 0) {
		}
	}
	in.Close()
	close(stop)
	wg.Wait()
	if checker.replies.Load() == 0 {
		t.Fatal("no interest was answered from the cache")
	}
}

// TestCacheRaceParallelWave runs a parallel-flagged composition whose two
// F_FIB FNs share a stage, so the engine executes them as a wave on
// context copies; both hit the content store while a writer refreshes the
// name. Sequential interests are interleaved so the pooled context's
// scratch buffer has capacity when a wave starts. The copies must not
// write into that buffer (they would all share it), and the merged hit
// must reach the reply intact.
func TestCacheRaceParallelWave(t *testing.T) {
	const name = 0xAA000042
	cfg := baseCfg(t)
	cfg.NameFIB.AddUint32(0xAA000000, 8, fib.NextHop{Port: 1})
	cfg.ContentStore = cs.New[uint32](8)
	versions := csVersions(0x42)
	checker := &cacheReplyChecker{t: t, versions: map[uint32][][]byte{name: versions}}
	r := New(ops.NewRouterRegistry(cfg), Config{})
	r.AttachPort(checker)
	r.AttachPort(PortFunc(func([]byte) { t.Error("a cache hit was forwarded upstream") }))
	cfg.ContentStore.Put(name, versions[0])

	seq := profiles.NDNInterest(name)
	par := profiles.NDNInterest(name)
	par.Parallel = true
	par.FNs = append(par.FNs, core.RouterFN(0, 32, core.KeyFIB))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cfg.ContentStore.Put(name, versions[i%4])
		}
	}()
	const interests = 500
	for i := 0; i < interests; i++ {
		// Sequential hits give the pooled context's scratch capacity, which
		// the next parallel packet's wave copies would otherwise share.
		h := seq
		if i%2 == 1 {
			h = par
		}
		r.HandlePacket(pkt(t, h, nil), 0)
	}
	close(stop)
	wg.Wait()
	if got := checker.replies.Load(); got != interests {
		t.Fatalf("%d cache replies, want %d", got, interests)
	}
}
