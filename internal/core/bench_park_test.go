package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Benchmarks for the parked-waiter and payload paths: what a synchronous
// operation pays toward a locality whose server idles parked (versus one that
// is already hot), and what a large delegated payload costs.

// parkedServerRuntime builds the standard 2-partition identity-hashed
// runtime with a server goroutine that idles by parking (ServeWait) rather
// than spinning, plus a registered client thread. The returned stop tears
// both down.
func parkedServerRuntime(b testing.TB, parkFor time.Duration) (th *Thread, stop func()) {
	b.Helper()
	rt, err := New(Config{
		Partitions:    2,
		NamespaceSize: 2000,
		Hash:          IdentityHash,
		Init:          newCounterInit(),
	})
	if err != nil {
		b.Fatal(err)
	}
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
			srv.ServeWait(parkFor)
		}
	}()
	th, err = rt.RegisterAt(0)
	if err != nil {
		b.Fatal(err)
	}
	return th, func() {
		th.Unregister()
		stopped.Store(true)
		wg.Wait()
	}
}

// TestIdleAllocPins holds the idle-path benchmarks at 0 allocations:
// registered-but-idle senders under DisableTiming (the runtime of
// BenchmarkDelegationIdleSenders and BenchmarkServePassIdle) and a server
// parked in ServeWait (BenchmarkIdleWakeLatency; BenchmarkIdleCPUBurn/parked
// idles in the same park). In each, a serve pass that finds nothing to do
// and a synchronous delegation allocate nothing. The two BenchmarkIdleCPUBurn
// loops are pinned too: spin's Serve + Gosched is the idle serve pass, and
// parked's ServeWait timing out on an idle locality is the last subtest.
func TestIdleAllocPins(t *testing.T) {
	pin := func(t *testing.T, th *Thread, gap time.Duration) {
		for i := uint64(0); i < 100; i++ { // warm the rings, the park timer and the wake path
			th.ExecuteSync(1000+i%7, opNop, Args{U: [4]uint64{i}})
		}
		if n := testing.AllocsPerRun(200, func() { th.Serve() }); n != 0 {
			t.Errorf("an idle serve pass allocates %v per pass, want 0", n)
		}
		if n := testing.AllocsPerRun(50, func() {
			time.Sleep(gap)
			th.ExecuteSync(1001, opNop, Args{})
		}); n != 0 {
			t.Errorf("a synchronous delegation allocates %v per op, want 0", n)
		}
	}
	t.Run("idle senders", func(t *testing.T) {
		rt, cleanup := idleRuntime(t, 32)
		defer cleanup()
		defer startServer(t, rt, 1)()
		th, err := rt.RegisterAt(0)
		if err != nil {
			t.Fatal(err)
		}
		defer th.Unregister()
		pin(t, th, 0)
	})
	t.Run("parked server", func(t *testing.T) {
		th, stop := parkedServerRuntime(t, 100*time.Microsecond)
		defer stop()
		pin(t, th, 300*time.Microsecond) // past the server's park timeout
	})
	t.Run("idle serve wait", func(t *testing.T) {
		// BenchmarkIdleCPUBurn/parked's server loop: ServeWait parking to
		// its timeout on a locality a registered sender sends nothing to.
		rt, cleanup := idleRuntime(t, 1)
		defer cleanup()
		srv, err := rt.RegisterAt(1)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Unregister()
		if n := testing.AllocsPerRun(50, func() { srv.ServeWait(100 * time.Microsecond) }); n != 0 {
			t.Errorf("a ServeWait that times out allocates %v per call, want 0", n)
		}
	})
}

// BenchmarkIdleWakeLatency measures the synchronous operation's round-trip
// toward a locality whose only server idles by parking. An operation that
// finds the server parked wakes nothing: it runs inline on its sender at
// issue (Thread.issue), so that inline path is what is measured here, not a
// doorbell wake. The hot variant sends back-to-back, so the server is usually
// parked or, just after its park timeout, mid-serve, when the operation is
// delegated to it; the parked variant idles between operations long past the
// server's park timeout, so every operation finds the server parked, and the
// sender's caches cold.
// The wake-ns/op metric isolates the round-trip itself (ns/op includes the
// idle gap); compare with BenchmarkDelegation/sync, whose server spins and
// never parks.
func BenchmarkIdleWakeLatency(b *testing.B) {
	run := func(b *testing.B, gap time.Duration) {
		th, stop := parkedServerRuntime(b, 100*time.Microsecond)
		defer stop()
		// Warm up rings, histograms, and the park/wake machinery.
		for i := uint64(0); i < 100; i++ {
			th.ExecuteSync(1000+i%7, opNop, Args{U: [4]uint64{i}})
		}
		var inOp time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if gap > 0 {
				time.Sleep(gap)
			}
			t0 := time.Now()
			th.ExecuteSync(1000+uint64(i)%7, opNop, Args{U: [4]uint64{uint64(i)}})
			inOp += time.Since(t0)
		}
		b.StopTimer()
		b.ReportMetric(float64(inOp.Nanoseconds())/float64(b.N), "wake-ns/op")
	}
	b.Run("hot", func(b *testing.B) { run(b, 0) })
	b.Run("parked", func(b *testing.B) { run(b, 300*time.Microsecond) })
}

// BenchmarkDelegationArenaPayload measures a synchronous delegation
// carrying a 1 KiB []byte payload, boxed into Args.P. Payloads once had a
// second path through per-locality arenas; the name and its one sub-benchmark,
// heap, are kept so that bench-gate pairs this row across that change.
func BenchmarkDelegationArenaPayload(b *testing.B) {
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.Run("heap", func(b *testing.B) {
		th, stop := parkedServerRuntime(b, 100*time.Microsecond)
		defer stop()
		for i := uint64(0); i < 100; i++ {
			th.ExecuteSync(1000+i%7, opPayloadSum, Args{P: payload})
		}
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.ExecuteSync(1000+uint64(i)%7, opPayloadSum, Args{P: payload})
		}
		b.StopTimer()
	})
}
