package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/chaos"
)

// A locality whose every thread is parked is served by the sender: a
// synchronous burst toward it carries no wake, and the sender's wait — the
// wait loop, Completion.Ready, the ring-full wait — executes its own ring to
// it (Thread.selfServe), credited to Rescued.

// parkedServer registers a thread at locality loc whose goroutine idles in
// ServeWait(d) — mcd's serve loop — and returns once that thread is parked.
// returns reports how many ServeWait calls have returned; stop ends the loop,
// waking the thread through its park slot (a sender's wake may be dropped by
// the runtime's chaos injector), and unregisters it.
func parkedServer(t *testing.T, rt *Runtime, loc int, d time.Duration) (returns func() int64, stop func()) {
	t.Helper()
	srv, err := rt.RegisterAt(loc)
	if err != nil {
		t.Fatal(err)
	}
	var stopped atomic.Bool
	var n atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srv.Unregister()
		for !stopped.Load() {
			srv.ServeWait(d)
			n.Add(1)
		}
	}()
	for rt.Partition(loc).parked.Count() == 0 || rt.Metrics().Totals.Parks == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	return n.Load, func() {
		stopped.Store(true)
		for {
			rt.parker.Wake(srv.id)
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}
}

// TestRescueParkedLocality: synchronous operations toward a locality whose
// only thread is parked in ServeWait return the right results, wake nobody,
// are executed by their sender and leave the parked thread parked.
func TestRescueParkedLocality(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	sender, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Unregister()
	returns, stop := parkedServer(t, rt, 1, 10*time.Second)
	defer stop()

	before := rt.Metrics().Totals
	key := keyFor(t, rt, 1)
	if res := sender.ExecuteSync(key, opPut, Args{U: [4]uint64{7}}); res.Err != nil || res.U != 7 {
		t.Fatalf("put = (%d, %v), want (7, nil)", res.U, res.Err)
	}
	if res := sender.ExecuteSync(key, opGet, Args{}); res.Err != nil || res.U != 7 {
		t.Fatalf("get = (%d, %v), want (7, nil)", res.U, res.Err)
	}
	m := rt.Metrics().Totals
	if d := m.Wakes - before.Wakes; d != 0 {
		t.Errorf("Wakes rose by %d, want 0", d)
	}
	if m.Rescued != 2 || m.Served != 0 {
		t.Errorf("Rescued = %d, Served = %d, want 2, 0", m.Rescued, m.Served)
	}
	if n := returns(); n != 0 {
		t.Errorf("the parked thread returned from ServeWait %d times, want 0", n)
	}
	if rt.Partition(1).parked.Count() != 1 {
		t.Error("the parked thread left the parked set")
	}
}

// TestRescueRunningOwnerServes: the same operations toward a locality whose
// owner runs a Serve loop are delegated to it and credited to Served.
func TestRescueRunningOwnerServes(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	sender, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Unregister()
	defer startServer(t, rt, 1)()

	key := keyFor(t, rt, 1)
	const n = 100
	for i := uint64(1); i <= n; i++ {
		if res := sender.ExecuteSync(key, opAdd, Args{U: [4]uint64{1}}); res.Err != nil || res.U != i {
			t.Fatalf("add %d = (%d, %v)", i, res.U, res.Err)
		}
	}
	if m := rt.Metrics().Totals; m.Served != n || m.Rescued != 0 {
		t.Errorf("Served = %d, Rescued = %d, want %d, 0", m.Served, m.Rescued, n)
	}
}

// TestChaosDroppedWakeAppliedBeforeSelfServedRead: an asynchronous write
// whose doorbell and wake were dropped is still pending when the sender
// reads the same key synchronously; the sender serves its ring in FIFO
// order, so the read sees the write.
func TestChaosDroppedWakeAppliedBeforeSelfServedRead(t *testing.T) {
	t.Parallel()
	rt, inj := newChaosRuntime(t, 2, chaos.Config{Seed: 7, DropDoorbellProb: 1}, nil)
	sender, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Unregister()
	_, stop := parkedServer(t, rt, 1, 10*time.Second)
	defer stop()

	key := keyFor(t, rt, 1)
	sender.ExecuteAsync(key, opPut, Args{U: [4]uint64{9}})
	sender.Flush()
	if c := inj.Counts(); c.DoorbellsLost != 1 {
		t.Fatalf("DoorbellsLost = %d, want 1", c.DoorbellsLost)
	}
	if !rt.Partition(1).rings[sender.id].Load().Slot(0).Pending() {
		t.Fatal("the asynchronous write was served before the read was sent")
	}
	if res := sender.ExecuteSync(key, opGet, Args{}); res.Err != nil || res.U != 9 {
		t.Fatalf("get = (%d, %v), want (9, nil)", res.U, res.Err)
	}
	if m := rt.Metrics().Totals; m.Rescued != 2 || m.Wakes != 0 {
		t.Errorf("Rescued = %d, Wakes = %d, want 2, 0", m.Rescued, m.Wakes)
	}
}

// TestRescueReadyPoll: a synchronous operation polled only through Ready
// resolves on the first poll — the poll serves the sender's own ring — rather
// than after the parked thread's park timeout.
func TestRescueReadyPoll(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	sender, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Unregister()
	returns, stop := parkedServer(t, rt, 1, 10*time.Second)
	defer stop()

	var c Completion
	sender.ExecuteInto(&c, keyFor(t, rt, 1), opPut, Args{U: [4]uint64{5}})
	res, ok := c.Ready()
	if !ok {
		t.Fatal("the first Ready did not resolve the operation")
	}
	if res.Err != nil || res.U != 5 {
		t.Fatalf("res = (%d, %v), want (5, nil)", res.U, res.Err)
	}
	if m := rt.Metrics().Totals; m.Rescued != 1 || m.Wakes != 0 {
		t.Errorf("Rescued = %d, Wakes = %d, want 1, 0", m.Rescued, m.Wakes)
	}
	if n := returns(); n != 0 {
		t.Errorf("the parked thread returned from ServeWait %d times, want 0", n)
	}
}

// TestRescueRaceParkTimeout: the sender's own serving races a thread whose
// ServeWait times out at waitParkMin — each timeout makes its next pass a
// full scan, which finds the sender's ring — and every operation is applied
// exactly once. The operation yields, so the woken thread runs mid-drain even
// on one processor, and the sender pauses now and then, so some bursts find
// that thread awake and are delegated to it. The operation counts in a plain
// variable: the race detector also checks that the two servers' executions
// are ordered by the ring's claim.
func TestRescueRaceParkTimeout(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	sender, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Unregister()
	_, stop := parkedServer(t, rt, 1, waitParkMin)
	defer stop()

	count := uint64(0)
	inc := func(*Partition, uint64, *Args) Result {
		count++
		runtime.Gosched()
		return Result{U: count}
	}
	key := keyFor(t, rt, 1)
	const n = 2000
	for i := uint64(1); i <= n; i++ {
		if i%32 == 0 {
			time.Sleep(waitParkMin)
		}
		if res := sender.ExecuteSync(key, inc, Args{}); res.Err != nil || res.U != i {
			t.Fatalf("op %d = (%d, %v)", i, res.U, res.Err)
		}
	}
	if m := rt.Metrics().Totals; m.Served+m.Rescued != n {
		t.Errorf("Served + Rescued = %d + %d, want %d", m.Served, m.Rescued, n)
	}
}
