package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Benchmarks for the doorbell-driven serve loop: serve-pass cost must stay
// flat in the number of registered-but-idle threads (each of which owns a
// ring the pre-doorbell scan visited on every pass), and the delegation
// round-trip must not degrade as idle registrations accumulate.

// idleRuntime builds a 2-partition identity-hashed runtime with idle extra
// threads registered at locality 0. Each idle thread contributes one ring
// to every partition's ring table but never sends, so its rings are pure
// scan overhead for serving threads.
func idleRuntime(b testing.TB, idle int) (*Runtime, func()) {
	b.Helper()
	rt, err := New(Config{
		Partitions:    2,
		NamespaceSize: 2000,
		Hash:          IdentityHash,
		Init:          newCounterInit(),
		DisableTiming: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	idles := make([]*Thread, idle)
	for i := range idles {
		th, err := rt.RegisterAt(0)
		if err != nil {
			b.Fatal(err)
		}
		idles[i] = th
	}
	return rt, func() {
		for _, th := range idles {
			th.Unregister()
		}
	}
}

// BenchmarkDelegationIdleSenders measures the remote synchronous round-trip
// while registered-but-idle threads bloat the server's ring table. Before
// the doorbell, every serve pass on both sides scanned all registered
// rings, so ns/op grew with the idle count even though the idle threads
// never delegate anything.
func BenchmarkDelegationIdleSenders(b *testing.B) {
	for _, idle := range []int{0, 32, 96} {
		b.Run(fmt.Sprintf("idle%d", idle), func(b *testing.B) {
			rt, cleanup := idleRuntime(b, idle)
			defer cleanup()

			var stopped atomic.Bool
			var wg sync.WaitGroup
			srv, err := rt.RegisterAt(1)
			if err != nil {
				b.Fatal(err)
			}
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
			th, err := rt.RegisterAt(0)
			if err != nil {
				b.Fatal(err)
			}
			report := reportPaths(b, rt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.ExecuteSync(1000+uint64(i)%7, opNop, Args{U: [4]uint64{uint64(i)}})
			}
			report()
			th.Unregister()
			stopped.Store(true)
			wg.Wait()
		})
	}
}

// BenchmarkServePassIdle measures one serve pass with nothing pending —
// the cost every waiting thread pays per completion poll. The pass must be
// O(active senders), i.e. flat across the idle-thread counts.
func BenchmarkServePassIdle(b *testing.B) {
	for _, idle := range []int{0, 32, 96} {
		b.Run(fmt.Sprintf("idle%d", idle), func(b *testing.B) {
			rt, cleanup := idleRuntime(b, idle)
			defer cleanup()
			th, err := rt.RegisterAt(0)
			if err != nil {
				b.Fatal(err)
			}
			report := reportPaths(b, rt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Serve()
			}
			report()
			th.Unregister()
		})
	}
}
