package mcd

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dps/internal/workload"
)

func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

// cacheSuite runs the shared battery over any Cache.
func cacheSuite(t *testing.T, name string, mk func() Cache) {
	t.Run(name+"/SetGetDelete", func(t *testing.T) {
		t.Parallel()
		c := mk()
		if _, ok := c.Get(1); ok {
			t.Fatal("Get on empty cache succeeded")
		}
		if err := c.Set(1, val(1)); err != nil {
			t.Fatal(err)
		}
		if v, ok := c.Get(1); !ok || !bytes.Equal(v, val(1)) {
			t.Fatalf("Get(1) = (%q,%v)", v, ok)
		}
		if err := c.Set(1, val(2)); err != nil {
			t.Fatal(err)
		}
		if v, _ := c.Get(1); !bytes.Equal(v, val(2)) {
			t.Fatalf("Get after overwrite = %q", v)
		}
		if c.Len() != 1 {
			t.Fatalf("Len() = %d, want 1", c.Len())
		}
		if !c.Delete(1) || c.Delete(1) {
			t.Fatal("Delete semantics wrong")
		}
		if c.Len() != 0 {
			t.Fatalf("Len() = %d after delete", c.Len())
		}
	})
	t.Run(name+"/ManyKeys", func(t *testing.T) {
		t.Parallel()
		c := mk()
		const n = 2000
		for i := 0; i < n; i++ {
			if err := c.Set(uint64(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if v, ok := c.Get(uint64(i)); !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("Get(%d) = (%q,%v)", i, v, ok)
			}
		}
	})
	t.Run(name+"/ConcurrentMixed", func(t *testing.T) {
		t.Parallel()
		c := mk()
		const workers, iters, keys = 8, 2000, 64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < iters; i++ {
					k := uint64(rng.Intn(keys))
					switch rng.Intn(10) {
					case 0:
						c.Delete(k)
					case 1, 2:
						if err := c.Set(k, val(int(k))); err != nil {
							t.Error(err)
							return
						}
					default:
						if v, ok := c.Get(k); ok && !bytes.Equal(v, val(int(k))) {
							t.Errorf("Get(%d) returned foreign value %q", k, v)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

func TestStockCache(t *testing.T) {
	cacheSuite(t, "Stock", func() Cache {
		c, err := NewStock(StockConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

func TestParSecCache(t *testing.T) {
	cacheSuite(t, "ParSec", func() Cache {
		c, err := NewParSec(ParSecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

func TestStockEviction(t *testing.T) {
	t.Parallel()
	// Tiny cache: inserting far more than fits must evict LRU victims,
	// never error, and stay within the memory cap.
	c, err := NewStock(StockConfig{MemLimit: 64 << 10, MaxValue: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	v := make([]byte, 512)
	for i := 0; i < n; i++ {
		if err := c.Set(uint64(i), v); err != nil {
			t.Fatalf("Set(%d): %v", i, err)
		}
	}
	if used := c.MemUsed(); used > 64<<10 {
		t.Fatalf("MemUsed() = %d exceeds cap", used)
	}
	// Recently-set keys survive; the oldest are gone.
	if _, ok := c.Get(n - 1); !ok {
		t.Fatal("most recent key evicted")
	}
	if _, ok := c.Get(0); ok {
		t.Fatal("oldest key survived a full-cache sweep")
	}
	if c.Len() >= n {
		t.Fatalf("Len() = %d, want far fewer than %d", c.Len(), n)
	}
}

func TestStockLRUOrderRespectsGets(t *testing.T) {
	t.Parallel()
	// Capacity for ~a handful of 512B values in one class. Getting key 0
	// repeatedly must protect it from eviction.
	c, err := NewStock(StockConfig{MemLimit: 8 << 10, MaxValue: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	v := make([]byte, 512)
	if err := c.Set(0, v); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 100; i++ {
		if _, ok := c.Get(0); !ok {
			t.Fatalf("hot key evicted at iteration %d", i)
		}
		if err := c.Set(uint64(i), v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStockOversizedValue(t *testing.T) {
	t.Parallel()
	c, err := NewStock(StockConfig{MemLimit: 1 << 20, MaxValue: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set(1, make([]byte, 1<<20)); err == nil {
		t.Fatal("oversized Set succeeded")
	}
}

func TestParSecEvictionCLOCK(t *testing.T) {
	t.Parallel()
	c, err := NewParSec(ParSecConfig{MemLimit: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	v := make([]byte, 512)
	for i := 0; i < 500; i++ {
		if err := c.Set(uint64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if used := c.MemUsed(); used > 40<<10 {
		t.Fatalf("MemUsed() = %d far exceeds cap", used)
	}
	if c.Len() > 80 {
		t.Fatalf("Len() = %d, expected eviction to bound it", c.Len())
	}
}

func TestParSecGetInUnderQuiescence(t *testing.T) {
	t.Parallel()
	c, err := NewParSec(ParSecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c.Set(7, val(7))
	th := c.Domain().Register()
	defer th.Unregister()
	th.Enter()
	v, ok := c.GetIn(7)
	if !ok || !bytes.Equal(v, val(7)) {
		t.Fatalf("GetIn = (%q,%v)", v, ok)
	}
	th.Exit()
}

func TestDPSStockVariant(t *testing.T) {
	t.Parallel()
	d, err := NewDPS(DPSConfig{Partitions: 2, MaxThreads: 16})
	if err != nil {
		t.Fatal(err)
	}
	h, err := d.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h2, err := d.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()

	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				if h2.Serve() == 0 {
					runtime.Gosched()
				}
			}
		}
	}()

	const n = 300
	for i := 0; i < n; i++ {
		h.SetAsync(uint64(i), val(i))
	}
	h.Drain()
	for i := 0; i < n; i++ {
		if v, ok, err := h.Get(uint64(i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = (%q,%v,%v)", i, v, ok, err)
		}
	}
	if got := h.Len(); got != n {
		t.Fatalf("Len() = %d, want %d", got, n)
	}
	if first, err := h.Delete(5); err != nil || !first {
		t.Fatalf("first Delete = (%v,%v), want (true,nil)", first, err)
	}
	if again, err := h.Delete(5); err != nil || again {
		t.Fatalf("second Delete = (%v,%v), want (false,nil)", again, err)
	}
	// The shards must be genuinely partitioned: both hold items.
	for p := 0; p < 2; p++ {
		if d.Runtime().Partition(p).Data().(Cache).Len() == 0 {
			t.Errorf("partition %d holds no items", p)
		}
	}
	close(stop)
	<-done
}

func TestDPSReadYourWritesAcrossAsyncSets(t *testing.T) {
	t.Parallel()
	d, err := NewDPS(DPSConfig{Partitions: 4, MaxThreads: 16})
	if err != nil {
		t.Fatal(err)
	}
	h, err := d.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 200; i++ {
		h.SetAsync(42, val(i))
		if v, ok, err := h.Get(42); err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("iteration %d: read-your-writes violated: (%q,%v,%v)", i, v, ok, err)
		}
	}
}

func TestDPSParSecLocalGets(t *testing.T) {
	t.Parallel()
	d, err := NewDPS(DPSConfig{
		Partitions: 2,
		MaxThreads: 16,
		LocalGets:  true,
		NewShard:   func() (Cache, error) { return NewParSec(ParSecConfig{}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := d.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 100; i++ {
		if err := h.Set(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Runtime().Metrics().Totals.RemoteSends
	for i := 0; i < 100; i++ {
		if v, ok, err := h.Get(uint64(i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = (%q,%v,%v)", i, v, ok, err)
		}
	}
	if after := d.Runtime().Metrics().Totals.RemoteSends; after != before {
		t.Fatalf("local gets sent %d delegations", after-before)
	}
}

func TestFFWDVariant(t *testing.T) {
	t.Parallel()
	shard, err := NewStock(StockConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFFWD(shard)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := f.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unregister()
	for i := 0; i < 100; i++ {
		if err := h.Set(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if v, ok := h.Get(uint64(i)); !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = (%q,%v)", i, v, ok)
		}
	}
}

func TestTraceReplayAcrossVariants(t *testing.T) {
	t.Parallel()
	// Replay the same YCSB-style trace against Stock and DPS; both must
	// serve every get of a previously-set key.
	tr, err := workload.NewTrace(4000, workload.NewZipf(512, workload.DefaultTheta, 7), 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	stock, err := NewStock(StockConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dpsC, err := NewDPS(DPSConfig{Partitions: 2, MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	h, err := dpsC.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	written := map[uint64]bool{}
	for i, key := range tr.Keys {
		if tr.Sets[i] {
			v := val(int(key))
			if err := stock.Set(key, v); err != nil {
				t.Fatal(err)
			}
			if err := h.Set(key, v); err != nil {
				t.Fatal(err)
			}
			written[key] = true
			continue
		}
		sv, sok := stock.Get(key)
		dv, dok, err := h.Get(key)
		if err != nil {
			t.Fatalf("req %d key %d: %v", i, key, err)
		}
		if sok != written[key] || dok != written[key] {
			t.Fatalf("req %d key %d: stock=%v dps=%v want %v", i, key, sok, dok, written[key])
		}
		if sok && !bytes.Equal(sv, dv) {
			t.Fatalf("req %d key %d: stock %q != dps %q", i, key, sv, dv)
		}
	}
}

func TestSlabClasses(t *testing.T) {
	t.Parallel()
	s := newSlab(1<<20, 8192)
	if s.classFor(1) != 0 {
		t.Error("tiny value not in class 0")
	}
	if s.classFor(1<<20) != -1 {
		t.Error("oversized value got a class")
	}
	// Chunk reuse: alloc, release, alloc returns the same item.
	it, err := s.alloc(100)
	if err != nil || it == nil {
		t.Fatalf("alloc = (%v,%v)", it, err)
	}
	s.release(it)
	it2, err := s.alloc(100)
	if err != nil || it2 != it {
		t.Fatal("released chunk not reused")
	}
}

func BenchmarkStockGet(b *testing.B) {
	c, err := NewStock(StockConfig{})
	if err != nil {
		b.Fatal(err)
	}
	v := make([]byte, 128)
	for i := 0; i < 1024; i++ {
		c.Set(uint64(i), v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(uint64(i % 1024))
	}
}

func BenchmarkParSecGet(b *testing.B) {
	c, err := NewParSec(ParSecConfig{})
	if err != nil {
		b.Fatal(err)
	}
	v := make([]byte, 128)
	for i := 0; i < 1024; i++ {
		c.Set(uint64(i), v)
	}
	th := c.Domain().Register()
	defer th.Unregister()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Enter()
		c.GetIn(uint64(i % 1024))
		th.Exit()
	}
}
