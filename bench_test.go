// Real-machine benchmarks, one group per reproduced table/figure. These
// complement cmd/dpsbench: the harness regenerates the paper's curves on
// the simulated 4-socket machine, while these testing.B benchmarks measure
// the repository's actual Go implementations on the host, so downstream
// users can compare delegation, locking and application costs on their own
// hardware. EXPERIMENTS.md records both.
package dps_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dps"
	"dps/internal/bst"
	"dps/internal/dpsds"
	"dps/internal/dstest"
	"dps/internal/ffwd"
	"dps/internal/list"
	"dps/internal/mcd"
	"dps/internal/skiplist"
	"dps/internal/workload"
)

// spin burns roughly n cycles of CPU, standing in for the paper's
// fixed-length data-structure operations (Figures 3 and 6).
func spin(n int) uint64 {
	var x uint64 = 1
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

var sinkU64 atomic.Uint64

// startServeLoop registers a thread at loc and serves until stop.
func startServeLoop(b *testing.B, rt *dps.Runtime, loc int) (stop func()) {
	b.Helper()
	th, err := rt.RegisterAt(loc)
	if err != nil {
		b.Fatal(err)
	}
	var stopped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer th.Unregister()
		for !stopped.Load() {
			if th.Serve() == 0 {
				runtime.Gosched() // single-CPU hosts: let the client run
			}
		}
	}()
	return func() { stopped.Store(true); wg.Wait() }
}

// BenchmarkFig3DelegationRoundTrip measures a synchronous DPS delegation
// round trip (the Figure 3/6a fast path) for several operation lengths.
func BenchmarkFig3DelegationRoundTrip(b *testing.B) {
	for _, opLen := range []int{0, 500, 2000} {
		b.Run(fmt.Sprintf("op=%d", opLen), func(b *testing.B) {
			rt, err := dps.New(dps.Config{Partitions: 2})
			if err != nil {
				b.Fatal(err)
			}
			stop := startServeLoop(b, rt, 1)
			defer stop()
			t0, err := rt.RegisterAt(0)
			if err != nil {
				b.Fatal(err)
			}
			defer t0.Unregister()
			key := uint64(0)
			for rt.PartitionForKey(key).ID() != 1 {
				key++
			}
			op := func(p *dps.Partition, _ uint64, _ *dps.Args) dps.Result {
				return dps.Result{U: spin(opLen)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkU64.Store(t0.ExecuteSync(key, op, dps.Args{}).U)
			}
		})
	}
}

// BenchmarkFig3FFWDRoundTrip is the ffwd counterpart: client spin-waits on
// a dedicated server.
func BenchmarkFig3FFWDRoundTrip(b *testing.B) {
	for _, opLen := range []int{0, 500, 2000} {
		b.Run(fmt.Sprintf("op=%d", opLen), func(b *testing.B) {
			sys, err := ffwd.New(ffwd.Config{Servers: 1, ShardInit: func(int) any { return nil }})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			c, err := sys.Register()
			if err != nil {
				b.Fatal(err)
			}
			defer c.Unregister()
			op := func(_ any, _ uint64, _ *ffwd.Args) ffwd.Result {
				return ffwd.Result{U: spin(opLen)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkU64.Store(c.Call(uint64(i), op, ffwd.Args{}).U)
			}
		})
	}
}

// BenchmarkFig6bAsyncDelegation measures fire-and-forget delegation (the
// Figure 6b DPS-a line): issue cost without waiting for completion.
func BenchmarkFig6bAsyncDelegation(b *testing.B) {
	rt, err := dps.New(dps.Config{Partitions: 2})
	if err != nil {
		b.Fatal(err)
	}
	stop := startServeLoop(b, rt, 1)
	defer stop()
	t0, err := rt.RegisterAt(0)
	if err != nil {
		b.Fatal(err)
	}
	defer t0.Unregister()
	key := uint64(0)
	for rt.PartitionForKey(key).ID() != 1 {
		key++
	}
	nop := func(p *dps.Partition, _ uint64, _ *dps.Args) dps.Result { return dps.Result{} }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0.ExecuteAsync(key, nop, dps.Args{})
	}
	t0.Drain()
}

// BenchmarkFig7RWObject compares MCS-locked shared objects with their
// DPS-partitioned equivalent (Figure 7's atomic read-write object), varying
// the per-operation store count like the figure varies cache lines.
func BenchmarkFig7RWObject(b *testing.B) {
	const objects = 64
	type obj struct {
		mu   sync.Mutex
		data [64]uint64
	}
	for _, words := range []int{4, 64} {
		b.Run(fmt.Sprintf("mcs/words=%d", words), func(b *testing.B) {
			objs := make([]obj, objects)
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					o := &objs[i%objects]
					i++
					o.mu.Lock()
					for w := 0; w < words; w++ {
						o.data[w]++
					}
					o.mu.Unlock()
				}
			})
		})
		b.Run(fmt.Sprintf("dps/words=%d", words), func(b *testing.B) {
			rt, err := dps.New(dps.Config{
				Partitions: 2,
				Init: func(*dps.Partition) any {
					return &[objects]obj{}
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			stop := startServeLoop(b, rt, 1)
			defer stop()
			th, err := rt.RegisterAt(0)
			if err != nil {
				b.Fatal(err)
			}
			defer th.Unregister()
			op := func(p *dps.Partition, key uint64, _ *dps.Args) dps.Result {
				o := &p.Data().(*[objects]obj)[key%objects]
				o.mu.Lock()
				for w := 0; w < words; w++ {
					o.data[w]++
				}
				o.mu.Unlock()
				return dps.Result{}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.ExecuteSync(uint64(i), op, dps.Args{})
			}
		})
	}
}

// dsBenchImpls maps Figure 9-12 series names to real implementations.
var dsBenchImpls = []struct {
	name string
	mk   func() dstest.Set
}{
	{"gl-m", func() dstest.Set { return list.NewGlobalLock() }},
	{"lb-l", func() dstest.Set { return list.NewLazy() }},
	{"lf-m", func() dstest.Set { return list.NewMichael() }},
	{"optik-list", func() dstest.Set { return list.NewOPTIK() }},
	{"parsec-list", func() dstest.Set { return list.NewParSec() }},
	{"bst-tk", func() dstest.Set { return bst.NewTK() }},
	{"lf-n", func() dstest.Set { return bst.NewNatarajan() }},
	{"lb-h", func() dstest.Set { return skiplist.NewLockBased() }},
	{"lf-f", func() dstest.Set { return skiplist.NewLockFree() }},
}

// benchSet runs the §5.2 benchmark loop against a set: keys from dist,
// update ratio u.
func benchSet(b *testing.B, s dstest.Set, keyRange uint64, u float64) {
	b.Helper()
	keys := workload.NewUniform(keyRange, 11)
	mix, err := workload.NewMix(u, 13)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys.Next()
		switch mix.Next() {
		case workload.OpLookup:
			s.Lookup(key)
		case workload.OpInsert:
			s.Insert(key, key)
		case workload.OpRemove:
			s.Remove(key)
		}
	}
}

// BenchmarkFig9HighContention is the Figure 9(a) setting on real structures:
// 4K elements, 50% updates. (Lists use a smaller range to keep O(n)
// traversals affordable under testing.B.)
func BenchmarkFig9HighContention(b *testing.B) {
	for _, impl := range dsBenchImpls {
		b.Run(impl.name, func(b *testing.B) {
			s := impl.mk()
			size := 4096
			if impl.name[0] == 'g' || impl.name[0] == 'l' && impl.name[1] == 'b' && impl.name[2] == '-' && impl.name[3] == 'l' {
				size = 512
			}
			for i := 0; i < size; i++ {
				s.Insert(uint64(i*2+1), 1)
			}
			benchSet(b, s, uint64(size*4), 0.5)
		})
	}
}

// BenchmarkFig9DPSWrapped measures the same structures wrapped in DPS
// (Figure 9's overlaid bars), via registered handles.
func BenchmarkFig9DPSWrapped(b *testing.B) {
	for _, impl := range []struct {
		name string
		mk   func() dpsds.Inner
	}{
		{"lf-m", func() dpsds.Inner { return list.NewMichael() }},
		{"bst-tk", func() dpsds.Inner { return bst.NewTK() }},
		{"lf-f", func() dpsds.Inner { return skiplist.NewLockFree() }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			s, err := dpsds.NewSet(dpsds.Config{Partitions: 2, NewShard: impl.mk, MaxThreads: 8})
			if err != nil {
				b.Fatal(err)
			}
			// A peer serving the other locality.
			h2, err := s.RegisterAt(1)
			if err != nil {
				b.Fatal(err)
			}
			var stopped atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer h2.Unregister()
				for !stopped.Load() {
					if h2.Serve() == 0 {
						runtime.Gosched()
					}
				}
			}()
			defer func() { stopped.Store(true); wg.Wait() }()
			h, err := s.RegisterAt(0)
			if err != nil {
				b.Fatal(err)
			}
			defer h.Unregister()
			for i := 0; i < 4096; i++ {
				h.Insert(uint64(i*2+1), 1)
			}
			keys := workload.NewUniform(4096*4, 11)
			mix, err := workload.NewMix(0.5, 13)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := keys.Next()
				switch mix.Next() {
				case workload.OpLookup:
					h.Lookup(key)
				case workload.OpInsert:
					h.Insert(key, key)
				case workload.OpRemove:
					h.Remove(key)
				}
			}
		})
	}
}

// BenchmarkFig11LargeBST is Figure 11(b)'s setting: large tree, 5% updates.
// Keys are inserted in pseudo-random order: sequential insertion would
// degenerate the external trees into O(n)-depth spines.
func BenchmarkFig11LargeBST(b *testing.B) {
	for _, impl := range []struct {
		name string
		mk   func() dstest.Set
	}{
		{"bst-tk", func() dstest.Set { return bst.NewTK() }},
		{"lf-n", func() dstest.Set { return bst.NewNatarajan() }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			s := impl.mk()
			const size = 1 << 18
			for i := uint64(0); i < size; i++ {
				// Odd multiplier: a permutation of the 4*size key space.
				key := (i*2654435761)%(size*4) + 1
				s.Insert(key, 1)
			}
			benchSet(b, s, size*4, 0.05)
		})
	}
}

// BenchmarkFig12LargeSkiplist is Figure 12(b)'s setting.
func BenchmarkFig12LargeSkiplist(b *testing.B) {
	for _, impl := range []struct {
		name string
		mk   func() dstest.Set
	}{
		{"lb-h", func() dstest.Set { return skiplist.NewLockBased() }},
		{"lf-f", func() dstest.Set { return skiplist.NewLockFree() }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			s := impl.mk()
			const size = 1 << 18
			for i := 0; i < size; i++ {
				s.Insert(uint64(i*2+1), 1)
			}
			benchSet(b, s, size*4, 0.05)
		})
	}
}

// BenchmarkFig13Memcached replays the §5.3 trace shape against the real
// cache variants (Figure 13; mcdbench gives the full parameterized run).
func BenchmarkFig13Memcached(b *testing.B) {
	const items = 1 << 14
	val := make([]byte, 128)
	trace, err := workload.NewTrace(1<<16, workload.NewZipf(items, workload.DefaultTheta, 5), 0.01, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("stock", func(b *testing.B) {
		c, err := mcd.NewStock(mcd.StockConfig{MemLimit: 64 << 20, Buckets: items})
		if err != nil {
			b.Fatal(err)
		}
		for k := uint64(1); k <= items; k++ {
			c.Set(k, val)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(trace.Keys)
			if trace.Sets[j] {
				c.Set(trace.Keys[j], val)
			} else {
				c.Get(trace.Keys[j])
			}
		}
	})
	b.Run("parsec", func(b *testing.B) {
		c, err := mcd.NewParSec(mcd.ParSecConfig{MemLimit: 64 << 20, Buckets: items})
		if err != nil {
			b.Fatal(err)
		}
		for k := uint64(1); k <= items; k++ {
			c.Set(k, val)
		}
		th := c.Domain().Register()
		defer th.Unregister()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(trace.Keys)
			if trace.Sets[j] {
				c.Set(trace.Keys[j], val)
			} else {
				th.Enter()
				c.GetIn(trace.Keys[j])
				th.Exit()
			}
		}
	})
	b.Run("dps-stock", func(b *testing.B) {
		st, err := mcd.Open("dps", mcd.Config{Partitions: 2, MaxThreads: 8})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		h, err := st.Session()
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		// A raw runtime thread serves the other locality, so the session's
		// operations toward it are delegations rather than inline runs (a
		// session between calls is Idle).
		srv, err := st.(interface{ Runtime() *dps.Runtime }).Runtime().RegisterAt(1)
		if err != nil {
			b.Fatal(err)
		}
		var stopped atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer srv.Unregister()
			for !stopped.Load() {
				if srv.Serve() == 0 {
					runtime.Gosched()
				}
			}
		}()
		defer func() { stopped.Store(true); wg.Wait() }()
		for k := uint64(1); k <= items; k++ {
			h.SetAsync(k, val)
		}
		h.Drain()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(trace.Keys)
			if trace.Sets[j] {
				h.SetAsync(trace.Keys[j], val) // async, as in §5.3
			} else {
				h.Get(trace.Keys[j])
			}
		}
		h.Drain()
	})
}

// BenchmarkTable2LargeValues stresses the big-object regime of Table 2 at
// laptop scale: 1 MB values through stock vs DPS caches.
func BenchmarkTable2LargeValues(b *testing.B) {
	const items = 32
	val := make([]byte, 1<<20)
	b.Run("stock", func(b *testing.B) {
		c, err := mcd.NewStock(mcd.StockConfig{MemLimit: 128 << 20, MaxValue: 2 << 20, Buckets: 64})
		if err != nil {
			b.Fatal(err)
		}
		for k := uint64(1); k <= items; k++ {
			c.Set(k, val)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Get(uint64(i%items + 1))
		}
	})
}

// --- ablations (DESIGN.md §5) ------------------------------------------------

// BenchmarkAblationRingDepth sweeps the ring depth under asynchronous load
// (§4.2's fixed-size rings: deeper rings absorb larger async bursts).
func BenchmarkAblationRingDepth(b *testing.B) {
	for _, depth := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rt, err := dps.New(dps.Config{Partitions: 2, RingDepth: depth})
			if err != nil {
				b.Fatal(err)
			}
			stop := startServeLoop(b, rt, 1)
			defer stop()
			th, err := rt.RegisterAt(0)
			if err != nil {
				b.Fatal(err)
			}
			defer th.Unregister()
			key := uint64(0)
			for rt.PartitionForKey(key).ID() != 1 {
				key++
			}
			nop := func(p *dps.Partition, _ uint64, _ *dps.Args) dps.Result { return dps.Result{} }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.ExecuteAsync(key, nop, dps.Args{})
			}
			th.Drain()
		})
	}
}

// BenchmarkAblationLocalExec compares delegated gets with locally-executed
// gets over the same DPS-wrapped lock-free structure (§4.4's optimization).
func BenchmarkAblationLocalExec(b *testing.B) {
	for _, local := range []bool{false, true} {
		b.Run(fmt.Sprintf("localReads=%v", local), func(b *testing.B) {
			s, err := dpsds.NewSet(dpsds.Config{
				Partitions: 2,
				NewShard:   func() dpsds.Inner { return skiplist.NewLockFree() },
				LocalReads: local,
				MaxThreads: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			h2, err := s.RegisterAt(1)
			if err != nil {
				b.Fatal(err)
			}
			var stopped atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer h2.Unregister()
				for !stopped.Load() {
					if h2.Serve() == 0 {
						runtime.Gosched()
					}
				}
			}()
			defer func() { stopped.Store(true); wg.Wait() }()
			h, err := s.RegisterAt(0)
			if err != nil {
				b.Fatal(err)
			}
			defer h.Unregister()
			for i := uint64(1); i <= 4096; i++ {
				h.Insert(i, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Lookup(uint64(i%4096 + 1))
			}
		})
	}
}
