package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// opSlow returns an op that sleeps for d before delegating to inner.
func opSlow(d time.Duration, inner Op) Op {
	return func(p *Partition, key uint64, args *Args) Result {
		time.Sleep(d)
		return inner(p, key, args)
	}
}

func opPanic(p *Partition, key uint64, args *Args) Result {
	panic("boom")
}

// Satellite regression: a fire-and-forget operation that panics used to be
// re-raised on the serving thread, killing an innocent peer. It must route
// to Config.OnPanic instead, and the server must keep serving.
func TestAsyncPanicRoutedToPolicyNotServer(t *testing.T) {
	t.Parallel()
	got := make(chan PanicInfo, 1) // one panic is raised
	rt, err := New(Config{Partitions: 2, Init: newCounterInit(), OnPanic: func(info PanicInfo) {
		got <- info
	}})
	if err != nil {
		t.Fatal(err)
	}
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	stop := startServer(t, rt, 1)
	defer stop()

	key := keyFor(t, rt, 1)
	t0.ExecuteAsync(key, opPanic, Args{})
	t0.Drain()

	// Drain returns once the server has released the slot, and the server
	// releases before it routes the panic (a handler that itself panics
	// must not wedge the sender), so the handler may not have run yet.
	var info PanicInfo
	select {
	case info = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("panic handler never called")
	}
	if info.Value != "boom" || !info.Async || info.Partition != 1 || info.Key != key {
		t.Fatalf("PanicInfo = %+v", info)
	}
	// The serving thread survived: it still executes new delegations.
	if res := t0.ExecuteSync(key, opPut, Args{U: [4]uint64{3}}); res.Err != nil || res.U != 3 {
		t.Fatalf("server did not survive the panic: %+v", res)
	}
	if m := rt.Metrics().Totals; m.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", m.Panics)
	}
}

func TestAsyncPanicCrashPolicy(t *testing.T) {
	t.Parallel()
	// Fail-stop is an OnPanic that panics: the panic surfaces on the serving
	// thread, carrying the PanicInfo — and only after the slot was released,
	// so the sender's Drain barrier does not wedge on it.
	rt, err := New(Config{Partitions: 2, Init: newCounterInit(), OnPanic: func(info PanicInfo) { panic(info) }})
	if err != nil {
		t.Fatal(err)
	}
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	t1, err := rt.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Unregister()

	t0.ExecuteAsync(keyFor(t, rt, 1), opPanic, Args{})
	t0.Flush() // publish the open burst without blocking on its completion
	var crashed any
	func() {
		defer func() { crashed = recover() }()
		for t1.Serve() == 0 {
			time.Sleep(time.Millisecond)
		}
	}()
	info, ok := crashed.(PanicInfo)
	if !ok {
		t.Fatalf("serving thread recovered %v (%T), want the PanicInfo OnPanic re-raised", crashed, crashed)
	}
	if info.Value != "boom" || !info.Async {
		t.Fatalf("PanicInfo = %+v", info)
	}
	t0.Drain()
}

// Satellite: awaiting a completion after its thread unregistered used to
// spin on a ring slot the runtime may already have recycled. It must panic
// with ErrUnregistered instead.
func TestCompletionAwaitAfterUnregisterPanics(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := rt.RegisterAt(1) // keeps locality 1 populated; never serves
	if err != nil {
		t.Fatal(err)
	}

	var c Completion
	t0.ExecuteInto(&c, keyFor(t, rt, 1), opPut, Args{U: [4]uint64{1}})
	t0.Unregister()
	func() {
		defer func() {
			if rec := recover(); rec != ErrUnregistered {
				t.Errorf("Ready after Unregister panicked with %v, want ErrUnregistered", rec)
			}
		}()
		c.Ready()
		t.Error("Ready after Unregister did not panic")
	}()
	// Drain the staged request so the recycled thread id's ring is clean.
	for t1.Serve() == 0 {
		time.Sleep(time.Millisecond)
	}
	t1.Unregister()
}

func TestCompletionDoneBeforeUnregisterStaysReadable(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 1)
	t0, err := rt.Register()
	if err != nil {
		t.Fatal(err)
	}
	var c Completion
	t0.ExecuteInto(&c, 7, opPut, Args{U: [4]uint64{7}}) // local: done inline
	t0.Unregister()
	res, ok := c.Ready()
	if !ok || res.U != 7 {
		t.Fatalf("finished completion unreadable after Unregister: (%+v, %t)", res, ok)
	}
}

// timedRuntime is newTestRuntime(t, 2) under OpTimeout d, with a serving
// thread at locality 1 and the returned sender at locality 0.
func timedRuntime(t *testing.T, d time.Duration, onPanic func(PanicInfo)) (*Runtime, *Thread) {
	t.Helper()
	rt, err := New(Config{Partitions: 2, Init: newCounterInit(), OpTimeout: d, OnPanic: onPanic})
	if err != nil {
		t.Fatal(err)
	}
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(t0.Unregister)
	t.Cleanup(startServer(t, rt, 1))
	return rt, t0
}

func TestExecuteSyncTimeoutExpires(t *testing.T) {
	t.Parallel()
	rt, t0 := timedRuntime(t, 30*time.Millisecond, nil)
	key := keyFor(t, rt, 1)
	if res := t0.ExecuteSync(key, opSlow(300*time.Millisecond, opAdd), Args{U: [4]uint64{1}}); !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("got %+v, want ErrTimeout", res)
	}
	if m := rt.Metrics().Totals; m.Abandoned != 1 {
		t.Fatalf("Abandoned = %d, want 1", m.Abandoned)
	}
	// The operation still executes; Drain waits for the abandoned slot to
	// be released and reclaims it, after which the ring is fully reusable.
	t0.Drain()
	if res := t0.ExecuteSync(key, opGet, Args{}); res.Err != nil || res.U != 1 {
		t.Fatalf("after reap, get = %+v, want 1 (the timed-out add still landed)", res)
	}
}

func TestExecuteSyncTimeoutCompletesInTime(t *testing.T) {
	t.Parallel()
	rt, t0 := timedRuntime(t, 5*time.Second, nil)
	if res := t0.ExecuteSync(keyFor(t, rt, 1), opPut, Args{U: [4]uint64{4}}); res.Err != nil || res.U != 4 {
		t.Fatalf("got %+v, want 4", res)
	}
	// Local keys are plain function calls, whatever the bound.
	rt, t0 = timedRuntime(t, time.Nanosecond, nil)
	if res := t0.ExecuteSync(keyFor(t, rt, 0), opPut, Args{U: [4]uint64{5}}); res.Err != nil || res.U != 5 {
		t.Fatalf("local got %+v, want 5", res)
	}
}

func TestResultTimeout(t *testing.T) {
	t.Parallel()
	rt, t0 := timedRuntime(t, 30*time.Millisecond, nil)
	key := keyFor(t, rt, 1)
	var c Completion
	t0.ExecuteInto(&c, key, opSlow(300*time.Millisecond, opAdd), Args{U: [4]uint64{1}})
	if res := c.Result(); !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("got %+v, want ErrTimeout", res)
	}
	// The abandoned completion is done: further awaits return the timeout
	// result immediately instead of touching the recycled slot.
	if res, ok := c.Ready(); !ok || !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("abandoned completion Ready = (%+v, %t)", res, ok)
	}
	t0.Drain()
	if res := t0.ExecuteSync(key, opGet, Args{}); res.U != 1 {
		t.Fatalf("value = %+v, want 1", res)
	}
}

func TestAbandonedOpPanicRoutedOnReap(t *testing.T) {
	t.Parallel()
	// A timed-out synchronous operation that panics has no awaiter left to
	// re-raise on; the panic must reach the OnPanic handler when the sender
	// reaps the abandoned slot, flagged as non-async.
	var got atomic.Pointer[PanicInfo]
	rt, t0 := timedRuntime(t, 20*time.Millisecond, func(info PanicInfo) { got.Store(&info) })
	key := keyFor(t, rt, 1)
	if res := t0.ExecuteSync(key, opSlow(200*time.Millisecond, opPanic), Args{}); !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", res.Err)
	}
	t0.Drain() // waits for the release, reaps, routes the panic
	info := got.Load()
	if info == nil {
		t.Fatal("abandoned op's panic never reached the handler")
	}
	if info.Value != "boom" || info.Async || info.Key != key {
		t.Fatalf("PanicInfo = %+v", *info)
	}
}

func TestShutdownCleanWhenQuiescent(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	stop := startServer(t, rt, 1)
	if res := t0.ExecuteSync(keyFor(t, rt, 1), opPut, Args{U: [4]uint64{1}}); res.Err != nil {
		t.Fatal(res.Err)
	}
	t0.Unregister()
	stop()

	rep, err := rt.Shutdown(5 * time.Second)
	if err != nil {
		t.Fatalf("Shutdown = %+v, %v", rep, err)
	}
	if rep.Abandoned != 0 || rep.LiveThreads != 0 {
		t.Fatalf("clean shutdown left work behind: %+v", rep)
	}
	if _, err := rt.Register(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Shutdown = %v, want ErrClosed", err)
	}
	if _, err := rt.Shutdown(time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Shutdown = %v, want ErrClosed", err)
	}
}
