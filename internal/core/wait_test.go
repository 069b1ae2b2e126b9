package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/chaos"
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
			w := newWaiter(th, tc.c.p, tc.c.target, nil)
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
			w = newWaiter(th, tc.c.p, tc.c.target, nil)
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
			report := reportPaths(b, client)
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
			report()
		})
	}
}

// wedged is the fixture of TestOneWaitLoop: a cluster client whose thread w
// (locality 0) can be made to wait on something that will not resolve until
// the test says so — a ring slot toward partition 1, where f is registered
// next to a thread that makes no call (so sends are delegated even while f
// parks) but the test holds the claim of w's ring (so neither f nor w's own
// stall rescue can serve it), or a wire token whose
// operation blocks in the peer. Rings are two slots deep; bound is both the
// client's OpTimeout and the peer's Timeout (0: the defaults).
type wedged struct {
	client   *Runtime
	w, f     *Thread
	ring     *dring
	bound    time.Duration
	released bool
}

func newWedged(t *testing.T, bound time.Duration) *wedged {
	t.Helper()
	blockPeer = make(chan struct{})
	client, w := startCluster(t, func(c *Config) {
		c.RingDepth = 2
		if bound > 0 {
			c.OpTimeout = bound
			c.Peers[0].Timeout = bound
		}
	})
	f, err := client.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := client.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bystander.Unregister)
	e := &wedged{client: client, w: w, f: f, ring: client.Partition(1).rings[w.id].Load(), bound: bound}
	if !e.ring.TryClaim() {
		t.Fatal("fresh ring already claimed")
	}
	// Runs before startCluster's cleanup: retire f, with w serving what f
	// still has in flight toward w's locality.
	t.Cleanup(func() {
		e.unwedge()
		if client.down.Load() {
			f.Unregister()
			return
		}
		serveUntil(w, f.Unregister)
	})
	return e
}

// unwedge lets both kinds of target resolve.
func (e *wedged) unwedge() {
	if !e.released {
		e.released = true
		e.ring.Unclaim()
		close(blockPeer)
	}
}

// serveUntil serves on th until fn, run on its own goroutine, has returned.
func serveUntil(th *Thread, fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	for {
		select {
		case <-done:
			return
		default:
			th.Serve()
		}
	}
}

// TestOneWaitLoop makes the same three checks on every entry point of the
// one wait loop — a completion on a ring slot, a completion on a wire token,
// Drain on a fire-and-forget burst, and a send into a full ring, by
// ExecuteSync and by ExecuteInto:
//
//   - a deadline ends the wait with ErrTimeout on time while the waiter's
//     own locality has a steady stream of delegated work to serve. The
//     deadline is Config.OpTimeout; Drain is outside that rule and has a
//     deadline only toward a peer, the peer's Timeout;
//   - Shutdown ends it with ErrClosed;
//   - a round that served something returns the waiter to the spin stage:
//     with one operation after another delegated to its locality in lockstep
//     the waiter finds the next within its spin budget and does not park —
//     unless the kernel takes the sender's processor away, which costs a few
//     parks each time (and on a wire token the budget is only wire.AwaitSpin
//     yields), so the check is that fewer than half the operations see a
//     park. Without the reset a completion's wait parks once per operation
//     here (1941 and 1998 times in 2000 when the reset was missing).
func TestOneWaitLoop(t *testing.T) {
	const bound = 50 * time.Millisecond
	result := func(key uint64, op Op) func(e *wedged) func() error {
		return func(e *wedged) func() error {
			var c Completion
			e.w.ExecuteInto(&c, key, op, Args{})
			return func() error { return c.Result().Err }
		}
	}
	// fill leaves w's two-slot ring to partition 1 full of published bursts.
	fill := func(e *wedged) {
		for i := 0; i < 2*burstSize; i++ {
			e.w.ExecuteAsync(1, remoteLen, Args{})
		}
	}
	entries := []struct {
		name string
		// begin stages what the wait is for and returns the wait itself.
		begin    func(e *wedged) func() error
		noError  bool // the entry point returns nothing to check
		unstaged bool // a timed-out operation was never staged: nothing is abandoned
	}{
		{name: "Result on a ring slot", begin: result(1, remoteLen)},
		{name: "Result on a wire token", begin: result(2, remoteBlock)},
		{name: "Drain", noError: true,
			begin: func(e *wedged) func() error {
				return func() error {
					if e.bound > 0 {
						e.w.ExecuteAsync(2, remoteBlock, Args{})
					} else {
						e.w.ExecuteAsync(1, remoteLen, Args{})
					}
					e.w.Drain()
					return nil
				}
			}},
		{name: "send into a full ring", unstaged: true,
			begin: func(e *wedged) func() error {
				fill(e)
				return func() error { return e.w.ExecuteSync(1, remoteLen, Args{}).Err }
			}},
		{name: "ExecuteInto into a full ring", unstaged: true,
			begin: func(e *wedged) func() error {
				fill(e)
				return func() error {
					var c Completion
					e.w.ExecuteInto(&c, 1, remoteLen, Args{})
					return c.Result().Err
				}
			}},
	}
	// waitOn runs wait on its own goroutine once it is known to have started.
	waitOn := func(wait func() error) <-chan error {
		got, started := make(chan error, 1), make(chan struct{})
		go func() {
			close(started)
			got <- wait()
		}()
		<-started
		return got
	}
	// within fails the test unless the wait ends in time; it unwedges a wait
	// that does not, so the waiter's thread is not left running.
	within := func(t *testing.T, e *wedged, got <-chan error) error {
		t.Helper()
		select {
		case err := <-got:
			return err
		case <-time.After(5 * time.Second):
			e.unwedge()
			serveUntil(e.f, func() { <-got })
			t.Fatal("still waiting after 5s")
			return nil
		}
	}

	for _, en := range entries {
		t.Run(en.name+"/deadline under a trickle of work", func(t *testing.T) {
			e := newWedged(t, bound)
			// f keeps w's locality supplied with work only w can serve.
			var stop atomic.Bool
			flooded := make(chan struct{})
			go func() {
				defer close(flooded)
				for i := uint64(0); !stop.Load(); i++ {
					e.f.ExecuteAsync(rtParts*(i%64), busyOp, Args{})
				}
			}()
			abandoned := e.client.Metrics().Totals.Abandoned
			wait := en.begin(e)
			start := time.Now()
			err := within(t, e, waitOn(wait))
			elapsed := time.Since(start)
			stop.Store(true)
			serveUntil(e.w, func() { <-flooded })
			if !en.noError && !errors.Is(err, ErrTimeout) {
				t.Errorf("err = %v, want ErrTimeout", err)
			}
			if elapsed < bound || elapsed > 4*bound {
				t.Errorf("wait ended after %v, want within [%v, %v]", elapsed, bound, 4*bound)
			}
			if !en.unstaged {
				if d := e.client.Metrics().Totals.Abandoned - abandoned; d != 1 {
					t.Errorf("Abandoned rose by %d, want 1", d)
				}
			}
		})
		t.Run(en.name+"/Shutdown", func(t *testing.T) {
			e := newWedged(t, 0)
			got := waitOn(en.begin(e))
			e.client.Shutdown(bound)
			if err := within(t, e, got); !en.noError && !errors.Is(err, ErrClosed) {
				t.Errorf("err = %v, want ErrClosed", err)
			}
		})
		t.Run(en.name+"/progress returns to the spin stage", func(t *testing.T) {
			e := newWedged(t, 0)
			got := waitOn(en.begin(e))
			const ops = 2000
			var parks uint64
			for i := 0; i <= ops; i++ {
				if res := e.f.ExecuteSync(0, remoteLen, Args{}); res.Err != nil {
					t.Fatal(res.Err)
				}
				if i == 0 {
					// The waiter may have parked before the first operation.
					parks = e.client.Metrics().Totals.Parks
				}
			}
			parks = e.client.Metrics().Totals.Parks - parks
			e.unwedge()
			var err error
			serveUntil(e.f, func() { err = within(t, e, got) })
			if err != nil {
				t.Errorf("err = %v after the target resolved", err)
			}
			if parks > ops/2 {
				t.Errorf("parked %d times while serving %d operations in lockstep, want at most %d", parks, ops, ops/2)
			}
		})
	}
}

// TestOnePark: a dedicated server's ServeWait and a completion's wait block
// through the same Thread.park, so both count their parks, leave no bit
// behind in their locality's parked set, and — with every doorbell and its
// wake lost — serve a burst published for their locality while they were
// parked within a park or two: a park that times out makes the next serve
// pass a full scan (the every-64th-pass cadence alone would take 64 parks).
func TestOnePark(t *testing.T) {
	for _, tc := range []struct {
		name string
		// wait blocks th (locality 0) until stop is set or its own operation,
		// which the sender's locality executes last of all, has completed.
		wait func(th *Thread, key uint64, stop *atomic.Bool)
	}{
		{"ServeWait", func(th *Thread, key uint64, stop *atomic.Bool) {
			for !stop.Load() {
				th.ServeWait(time.Millisecond)
			}
		}},
		{"Result", func(th *Thread, key uint64, stop *atomic.Bool) {
			var c Completion
			th.ExecuteInto(&c, key, opNop, Args{})
			c.Result()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, _ := newChaosRuntime(t, 2, chaos.Config{Seed: 5, DropDoorbellProb: 1}, nil)
			th, err := rt.RegisterAt(0)
			if err != nil {
				t.Fatal(err)
			}
			defer th.Unregister()
			sender, err := rt.RegisterAt(1)
			if err != nil {
				t.Fatal(err)
			}
			defer sender.Unregister()
			// A thread of locality 0 that makes no call keeps it attended,
			// so the sender's operation is published toward th's locality
			// rather than run inline (Partition.unattended), and serves
			// nothing.
			bystander, err := rt.RegisterAt(0)
			if err != nil {
				t.Fatal(err)
			}
			defer bystander.Unregister()
			own := keyFor(t, rt, 0)

			var stop, ended atomic.Bool
			// The published operation itself reads the park count when th's
			// full scan executes it; the helper reads it right after the
			// publish (a helper descheduled in between reads too late and
			// undercounts, which cannot fail the test).
			var published, served atomic.Int64
			probe := func(*Partition, uint64, *Args) Result {
				served.Store(int64(rt.Metrics().Totals.Parks))
				return Result{}
			}
			helper := make(chan struct{})
			go func() {
				defer close(helper)
				for rt.Metrics().Totals.Parks == 0 { // until th has parked
					time.Sleep(50 * time.Microsecond)
				}
				sender.ExecuteAsync(own, probe, Args{})
				sender.Flush()
				published.Store(int64(rt.Metrics().Totals.Parks))
				for rt.Metrics().Totals.Served == 0 {
					time.Sleep(50 * time.Microsecond)
				}
				stop.Store(true)
				for !ended.Load() {
					sender.Serve()
				}
			}()
			tc.wait(th, keyFor(t, rt, 1), &stop)
			ended.Store(true)
			<-helper

			if parks := served.Load() - published.Load(); parks > 3 {
				t.Errorf("parked %d times before a full scan found the published burst, want at most 3", parks)
			}
			if m := rt.Metrics().Totals; m.DoorbellWakes != 0 {
				t.Errorf("DoorbellWakes = %d with every doorbell dropped", m.DoorbellWakes)
			}
			if idx, ok := rt.Partition(0).parked.Pick(); ok {
				t.Errorf("thread %d still advertised as parked after the wait", idx)
			}
		})
	}
}
