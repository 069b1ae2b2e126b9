//go:build linux

package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// BenchmarkIdleCPUBurn measures the CPU an idle serving thread burns while
// nothing is delegated, as process CPU-milliseconds per wall-second
// (getrusage delta over the timed window; each iteration is a 5ms sleep,
// so ns/op is flat by construction and the cpu-ms/s metric carries the
// result). Two idle strategies:
//
//   - spin: Serve+Gosched hot loop — the dedicated-server upper bound,
//     one full core (~1000 cpu-ms/s).
//   - parked: ServeWait with the 50ms park timeout mcd's serve loop uses —
//     the parked waiter; a doorbell wakes it directly (a synchronous
//     operation sent while it is parked is served by its sender and wakes
//     nothing), so idling costs only the periodic park timeouts.
//
// Linux-only: the measurement needs getrusage, and this is also the only
// platform where pinning makes the numbers mean anything.
func BenchmarkIdleCPUBurn(b *testing.B) {
	variants := []struct {
		name string
		loop func(srv *Thread, stopped *atomic.Bool)
	}{
		{"spin", func(srv *Thread, stopped *atomic.Bool) {
			for !stopped.Load() {
				if srv.Serve() == 0 {
					runtime.Gosched()
				}
			}
		}},
		{"parked", func(srv *Thread, stopped *atomic.Bool) {
			for !stopped.Load() {
				srv.ServeWait(50 * time.Millisecond)
			}
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
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
				v.loop(srv, &stopped)
			}()
			th, err := rt.RegisterAt(0)
			if err != nil {
				b.Fatal(err)
			}
			// Warm up so the idle window starts from a served state with
			// rings registered (the realistic idle shape: senders exist,
			// nothing pending).
			for i := uint64(0); i < 50; i++ {
				th.ExecuteSync(1000+i%7, opNop, Args{U: [4]uint64{i}})
			}

			wall0 := time.Now()
			cpu0 := processCPUMillis(b)
			report := reportPaths(b, rt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				time.Sleep(5 * time.Millisecond)
			}
			report()
			cpu := processCPUMillis(b) - cpu0
			if wall := time.Since(wall0).Seconds(); wall > 0 {
				b.ReportMetric(cpu/wall, "cpu-ms/s")
			}
			th.Unregister()
			stopped.Store(true)
			wg.Wait()
		})
	}
}

// processCPUMillis returns the process's cumulative user+system CPU time
// in milliseconds.
func processCPUMillis(b *testing.B) float64 {
	b.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec)*1e3 +
		float64(ru.Utime.Usec+ru.Stime.Usec)/1e3
}
