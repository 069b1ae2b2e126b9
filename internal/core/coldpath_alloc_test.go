package core

import (
	"errors"
	"testing"
	"time"
)

// TestColdPathAllocPins pins, at zero allocations, the paths of the runtime
// the hot-path pins (TestHotPathAllocations, TestRemoteExecuteSyncZeroAlloc,
// TestPackedAsyncZeroAlloc, TestIdleAllocPins) never drive: a Flush with
// nothing open, polling a completion that stays pending, a wait that ends in
// a stall rescue, reaping an entry given up on, and staging toward a peer
// into an open frame.
func TestColdPathAllocPins(t *testing.T) {
	// silent builds the two-partition runtime with a sender th at locality 0
	// and, at locality 1, a registered thread that makes no call: operations
	// toward 1 are delegated and only th's own waits serve them.
	silent := func(t *testing.T, opTimeout time.Duration) (*Runtime, *Thread) {
		rt, err := New(Config{Partitions: 2, NamespaceSize: 2000, Hash: IdentityHash, Init: newCounterInit(), OpTimeout: opTimeout})
		if err != nil {
			t.Fatal(err)
		}
		th, err := rt.RegisterAt(0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(th.Unregister)
		quiet, err := rt.RegisterAt(1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(quiet.Unregister)
		return rt, th
	}
	t.Run("flush", func(t *testing.T) {
		_, th := silent(t, 0)
		if n := testing.AllocsPerRun(200, th.Flush); n != 0 {
			t.Errorf("Flush allocates %v per call, want 0", n)
		}
	})
	t.Run("pending ready", func(t *testing.T) {
		_, th := silent(t, 0)
		var c Completion
		th.ExecuteInto(&c, 1000, opNop, Args{})
		if n := testing.AllocsPerRun(200, func() {
			if _, ok := c.Ready(); ok {
				panic("a completion nobody serves resolved")
			}
		}); n != 0 {
			t.Errorf("polling a pending completion allocates %v per poll, want 0", n)
		}
		if res := c.Result(); res.Err != nil { // served by th's stall rescue
			t.Fatal(res.Err)
		}
	})
	t.Run("stall rescue", func(t *testing.T) {
		// Every operation waits out a stall window (park timeouts, stall
		// samples, the rescue of th's own ring) before it completes.
		rt, th := silent(t, 0)
		before := rt.Metrics().Totals
		if n := testing.AllocsPerRun(3, func() {
			if res := th.ExecuteSync(1000, opNop, Args{U: [4]uint64{1}}); res.Err != nil {
				panic(res.Err)
			}
		}); n != 0 {
			t.Errorf("a wait ending in a stall rescue allocates %v per operation, want 0", n)
		}
		if m := rt.Metrics().Totals; m.Stalls-before.Stalls < 4 || m.Rescued-before.Rescued < 4 {
			t.Fatalf("stalls %d, rescued %d over 4 operations: not every wait ended in a rescue",
				m.Stalls-before.Stalls, m.Rescued-before.Rescued)
		}
	})
	t.Run("reap a given-up entry", func(t *testing.T) {
		// Each operation times out and is given up; Drain then waits for
		// the stall rescue that serves its slot, and reaps the entry.
		rt, th := silent(t, time.Millisecond)
		if n := testing.AllocsPerRun(3, func() {
			if res := th.ExecuteSync(1000, opNop, Args{}); !errors.Is(res.Err, ErrTimeout) {
				panic(res.Err)
			}
			th.Drain()
		}); n != 0 {
			t.Errorf("giving an operation up and reaping it allocates %v per operation, want 0", n)
		}
		if m := rt.Metrics().Totals; m.Abandoned != 4 {
			t.Fatalf("Abandoned = %d over 4 operations, want 4", m.Abandoned)
		}
	})
	t.Run("stage into an open frame", func(t *testing.T) {
		_, th := startCluster(t, nil)
		var cs [16]Completion
		i := 0
		stage := func() {
			th.ExecuteInto(&cs[i], 2, remoteLen, Args{U: [4]uint64{7}})
			i++
		}
		stage() // claims the frame: the one allocation per burst
		if n := testing.AllocsPerRun(8, stage); n != 0 {
			t.Errorf("staging into an open frame allocates %v per operation, want 0", n)
		}
		for j := 0; j < i; j++ {
			if res := cs[j].Result(); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	})
}
