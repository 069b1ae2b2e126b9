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

// TestDPSStockVariant: a session's delegated sets and gets reach a locality a
// raw core thread serves, and the shards are genuinely partitioned.
func TestDPSStockVariant(t *testing.T) {
	t.Parallel()
	st, err := Open("dps", Config{Partitions: 2, MaxThreads: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sess, err := st.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// A raw core thread in a Serve loop keeps the other locality attended (a
	// session between calls is Idle), so operations toward it cross the ring.
	rt := st.(*dpsStore).Runtime()
	srv, err := rt.RegisterAt(1 - sess.(*dpsSession).t.Locality())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(done)
		defer srv.Unregister()
		for {
			select {
			case <-stop:
				return
			default:
				if srv.Serve() == 0 {
					runtime.Gosched()
				}
			}
		}
	}()
	defer func() { close(stop); <-done }()

	const n = 300
	for i := 0; i < n; i++ {
		sess.SetAsync(uint64(i), val(i))
	}
	sess.Drain()
	for i := 0; i < n; i++ {
		if v, ok, err := sess.Get(uint64(i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = (%q,%v,%v)", i, v, ok, err)
		}
	}
	if got := st.Len(); got != n {
		t.Fatalf("Len() = %d, want %d", got, n)
	}
	if first, err := sess.Delete(5); err != nil || !first {
		t.Fatalf("first Delete = (%v,%v), want (true,nil)", first, err)
	}
	if again, err := sess.Delete(5); err != nil || again {
		t.Fatalf("second Delete = (%v,%v), want (false,nil)", again, err)
	}
	// The shards must be genuinely partitioned: both hold items.
	for p := 0; p < 2; p++ {
		if rt.Partition(p).Data().(Cache).Len() == 0 {
			t.Errorf("partition %d holds no items", p)
		}
	}
	if sends := st.Metrics().Totals.RemoteSends; sends == 0 {
		t.Error("no operation crossed a ring: the served locality ran everything inline")
	}
}

func TestDPSReadYourWritesAcrossAsyncSets(t *testing.T) {
	t.Parallel()
	st, err := Open("dps", Config{Partitions: 4, MaxThreads: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sess, err := st.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i := 0; i < 200; i++ {
		sess.SetAsync(42, val(i))
		if v, ok, err := sess.Get(42); err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("iteration %d: read-your-writes violated: (%q,%v,%v)", i, v, ok, err)
		}
	}
}

func TestDPSParSecLocalGets(t *testing.T) {
	t.Parallel()
	st, err := Open("dps-parsec", Config{Partitions: 2, MaxThreads: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sess, err := st.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i := 0; i < 100; i++ {
		if err := sess.Set(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := st.Metrics().Totals.RemoteSends
	for i := 0; i < 100; i++ {
		if v, ok, err := sess.Get(uint64(i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = (%q,%v,%v)", i, v, ok, err)
		}
	}
	if after := st.Metrics().Totals.RemoteSends; after != before {
		t.Fatalf("local gets sent %d delegations", after-before)
	}
}

// TestFFWDVariant: concurrent sessions of the ffwd store all delegate to its
// one server, whose single unsynchronized shard ends up holding every key.
func TestFFWDVariant(t *testing.T) {
	t.Parallel()
	st, err := Open("ffwd", Config{MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const sessions, perSession = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		sess, err := st.Session()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			defer sess.Close()
			for i := base; i < base+perSession; i++ {
				if err := sess.Set(uint64(i), val(i)); err != nil {
					errs <- err
					return
				}
			}
			for i := base; i < base+perSession; i++ {
				if v, ok, err := sess.Get(uint64(i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
					errs <- fmt.Errorf("Get(%d) = (%q,%v,%v)", i, v, ok, err)
					return
				}
			}
		}(s * perSession)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := st.(*ffwdStore).shard.Len(); n != sessions*perSession {
		t.Fatalf("server shard holds %d keys, want %d", n, sessions*perSession)
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
	dpsC, err := Open("dps", Config{Partitions: 2, MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer dpsC.Close()
	h, err := dpsC.Session()
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
