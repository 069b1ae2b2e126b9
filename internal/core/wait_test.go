package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dps/internal/wire"
)

// TestWaiterSpinBudgets drives waiter.pause directly against one pending
// target of each kind: a wait on a ring slot yields waitSpinYield times and
// parks on the next pause, a wait on a wire token yields wire.AwaitSpin
// times, reset returns each to the start of its own budget, and expired
// samples the clock on the budget's own grid.
func TestWaiterSpinBudgets(t *testing.T) {
	blockPeer = make(chan struct{})
	client, th := startCluster(t, nil)
	// Locality 1 has a registered thread that never serves, so an operation
	// sent there stays in its ring slot; the peer's server blocks in
	// remoteBlock, so an operation sent there stays on the wire.
	idle, err := client.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	var onRing, onWire Completion
	th.ExecuteInto(&onRing, 1, remoteLen, Args{})
	th.ExecuteInto(&onWire, 2, remoteBlock, Args{})
	th.flushOpen()
	defer func() {
		close(blockPeer)
		idle.Unregister()
		onRing.Result()
		onWire.Result()
	}()

	parks := func() uint64 { return client.Metrics().Totals.Parks }
	for _, tc := range []struct {
		name string
		c    *Completion
		spin int
	}{
		{"ring", &onRing, waitSpinYield},
		{"peer", &onWire, wire.AwaitSpin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.c.target.pending() {
				t.Fatal("target resolved before the test could wait on it")
			}
			w := newWaiter(th, tc.c.p, tc.c.target, time.Time{})
			for _, stage := range []string{"fresh", "after reset"} {
				base := parks()
				for i := 1; i <= tc.spin; i++ {
					w.pause()
					if parks() != base {
						t.Fatalf("%s: pause %d of a %d-pause budget parked", stage, i, tc.spin)
					}
				}
				w.pause()
				if got := parks() - base; got != 1 {
					t.Fatalf("%s: pause %d parked %d times, want 1", stage, tc.spin+1, got)
				}
				w.reset()
			}

			// A deadline that passes while the waiter is off the sampling
			// grid is noticed within waitClockEvery-1 pauses, or by the end
			// of the spin budget when that comes first.
			w = newWaiter(th, tc.c.p, tc.c.target, time.Now().Add(time.Hour))
			w.pause()
			w.deadline = time.Now().Add(-time.Second)
			late := 0
			for !w.expired() {
				w.pause()
				late++
			}
			if bound := min(waitClockEvery-1, tc.spin); late > bound {
				t.Fatalf("deadline noticed %d pauses late, want at most %d", late, bound)
			}
		})
	}
}

// BenchmarkPeerSyncRTT is the wire tier's round trip as a caller sees it: a
// synchronous echo of 128 bytes to a partition behind a PeerServer on
// loopback, from 1 sender and from 2 (run it with -cpu 1,2). With every
// sender waiting on the peer, what it measures is mostly how soon a waiter
// lets its processor poll the network.
func BenchmarkPeerSyncRTT(b *testing.B) {
	for _, senders := range []int{1, 2} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			client, th := startCluster(b, nil)
			threads := []*Thread{th}
			for len(threads) < senders {
				extra, err := client.Register()
				if err != nil {
					b.Fatal(err)
				}
				threads = append(threads, extra)
			}
			args := Args{P: make([]byte, 128)}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, th := range threads {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if i > 0 {
						defer th.Unregister()
					}
					key := uint64(2 + i) // partitions 2 and 3, both the peer's
					for n := i; n < b.N; n += senders {
						if res := th.ExecuteSync(key, remoteEcho, args); res.Err != nil {
							b.Error(res.Err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
