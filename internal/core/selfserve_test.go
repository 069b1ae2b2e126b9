package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/chaos"
	"dps/internal/obs"
)

// A locality whose every thread is parked or Idle (Partition.unattended) is
// served by the sender: an operation toward it runs inline at issue, credited
// to UnattendedExecs, once everything the sender sent there earlier has run;
// a burst staged before the locality turned unattended is executed by the
// sender's wait — the wait loop, Completion.Ready, the ring-full wait — off
// its own ring (Thread.selfServe), credited to Rescued.

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
// run inline on their sender at issue and leave the parked thread parked.
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
	if m.UnattendedExecs != 2 || m.Rescued != 0 || m.Served != 0 {
		t.Errorf("UnattendedExecs = %d, Rescued = %d, Served = %d, want 2, 0, 0", m.UnattendedExecs, m.Rescued, m.Served)
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
// sent while locality 1 had a running thread, whose doorbell and wake were
// dropped, is still pending when that thread goes Idle and the sender reads
// the same key synchronously. The write is unserved, so the read is staged
// behind it rather than run inline, and the sender serves its ring in FIFO
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
	running, err := rt.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	defer running.Unregister()

	key := keyFor(t, rt, 1)
	sender.ExecuteAsync(key, opPut, Args{U: [4]uint64{9}})
	sender.Flush()
	if c := inj.Counts(); c.DoorbellsLost != 1 {
		t.Fatalf("DoorbellsLost = %d, want 1", c.DoorbellsLost)
	}
	running.Idle()
	if !rt.Partition(1).rings[sender.id].Load().Slot(0).Pending() {
		t.Fatal("the asynchronous write was served before the read was sent")
	}
	if res := sender.ExecuteSync(key, opGet, Args{}); res.Err != nil || res.U != 9 {
		t.Fatalf("get = (%d, %v), want (9, nil)", res.U, res.Err)
	}
	if m := rt.Metrics().Totals; m.Rescued != 2 || m.UnattendedExecs != 0 || m.Wakes != 0 {
		t.Errorf("Rescued = %d, UnattendedExecs = %d, Wakes = %d, want 2, 0, 0", m.Rescued, m.UnattendedExecs, m.Wakes)
	}
}

// TestRescueReadyPoll: a synchronous operation issued while locality 1's
// only thread was running, and published and polled only through Ready after
// that thread went Idle, resolves on the first poll — the poll serves the
// sender's own ring — rather than whenever the thread makes its next call.
// (A burst already published when the thread goes Idle is served by its Idle.)
func TestRescueReadyPoll(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	sender, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Unregister()
	owner, err := rt.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Unregister()

	var c Completion
	sender.ExecuteInto(&c, keyFor(t, rt, 1), opPut, Args{U: [4]uint64{5}})
	owner.Idle()
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
}

// TestIdleServesPendingBurst: a burst published toward a locality while its
// only thread was in a call is served by that thread's Idle, before the mark,
// so a sender parked on it is woken instead of sleeping out its park timeout.
func TestIdleServesPendingBurst(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	sender, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Unregister()
	owner, err := rt.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Unregister()

	var c Completion
	sender.ExecuteInto(&c, keyFor(t, rt, 1), opPut, Args{U: [4]uint64{5}})
	sender.Flush()
	owner.Idle()
	if m := rt.Metrics().Totals; m.Served != 1 || m.Rescued != 0 {
		t.Errorf("after Idle: Served = %d, Rescued = %d, want 1, 0", m.Served, m.Rescued)
	}
	if res, ok := c.Ready(); !ok || res.Err != nil || res.U != 5 {
		t.Fatalf("Ready = (%d, %v), %t, want (5, nil), true", res.U, res.Err, ok)
	}
}

// TestRescueRaceParkTimeout: the sender's own serving — inline at issue and
// off its ring — races a thread whose ServeWait times out at waitParkMin —
// each timeout makes its next pass a full scan, which finds the sender's
// ring — and every operation is applied exactly once. The operation yields,
// so the woken thread runs mid-drain even on one processor, and the sender
// pauses now and then, so some operations find that thread awake and are
// delegated to it. The operation counts in a plain variable: the race
// detector also checks that the two threads' executions are ordered by the
// ring's claim and, for an inline one, by the release of the sender's last
// slot.
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
	if m := rt.Metrics().Totals; m.Served+m.Rescued+m.UnattendedExecs != n {
		t.Errorf("Served + Rescued + UnattendedExecs = %d + %d + %d, want %d", m.Served, m.Rescued, m.UnattendedExecs, n)
	}
}

// TestRescueIdleLocality: a thread under an Idle mark counts like a parked
// thread when a sender decides who runs an operation (Partition.unattended),
// and only until its next call; a fire-and-forget operation follows the same
// rule; Unregister drops the mark, with or without Shutdown first.
func TestRescueIdleLocality(t *testing.T) {
	type env struct {
		rt     *Runtime
		sender *Thread      // at locality 0
		idle   *Thread      // at locality 1, declared Idle before the row runs
		p      *Partition   // locality 1
		key    uint64       // a key of locality 1
		parked func() int64 // ServeWait returns of locality 1's parked crew thread
	}
	add := func(t *testing.T, e *env, want uint64) {
		t.Helper()
		if res := e.sender.ExecuteSync(e.key, opAdd, Args{U: [4]uint64{1}}); res.Err != nil || res.U != want {
			t.Fatalf("add = (%d, %v), want (%d, nil)", res.U, res.Err, want)
		}
	}
	// delta reports what the row's operations added to the counters the rule
	// decides between: a wake, a served operation, one its sender drained
	// off its ring, one its sender ran at issue.
	delta := func(e *env, before obs.Totals) (wakes, served, rescued, inline uint64) {
		m := e.rt.Metrics().Totals
		return m.Wakes - before.Wakes, m.Served - before.Served, m.Rescued - before.Rescued,
			m.UnattendedExecs - before.UnattendedExecs
	}
	rows := []struct {
		name string
		crew bool // a second thread of locality 1 parks in ServeWait
		run  func(t *testing.T, e *env)
	}{
		{name: "idle thread and parked crew: sender runs the operations", crew: true, run: func(t *testing.T, e *env) {
			const n = 16
			before := e.rt.Metrics().Totals
			for i := uint64(1); i <= n; i++ {
				add(t, e, i)
			}
			if w, s, r, u := delta(e, before); w != 0 || s != 0 || r != 0 || u != n {
				t.Errorf("Wakes, Served, Rescued, UnattendedExecs rose by %d, %d, %d, %d, want 0, 0, 0, %d", w, s, r, u, n)
			}
			if n := e.parked(); n != 0 {
				t.Errorf("the parked thread returned from ServeWait %d times, want 0", n)
			}
		}},
		// Without a crew the idle thread is locality 1's only thread, so the
		// burst that rings after its next call can only be served by it.
		{name: "next call ends the mark", run: func(t *testing.T, e *env) {
			add(t, e, 1)
			e.idle.Flush()
			if n := e.p.idle.Load(); n != 0 {
				t.Fatalf("idle count after the thread's next call = %d, want 0", n)
			}
			before := e.rt.Metrics().Totals
			var c Completion
			e.sender.ExecuteInto(&c, e.key, opAdd, Args{U: [4]uint64{1}})
			e.sender.Flush()
			if !e.p.bell.Any() {
				t.Fatal("the burst toward a locality with a running thread rang no doorbell")
			}
			if n := e.idle.Serve(); n != 1 {
				t.Fatalf("the once-idle thread served %d operations, want 1", n)
			}
			if res := c.Result(); res.Err != nil || res.U != 2 {
				t.Fatalf("add = (%d, %v), want (2, nil)", res.U, res.Err)
			}
			if w, s, r, u := delta(e, before); w != 0 || s != 1 || r != 0 || u != 0 {
				t.Errorf("Wakes, Served, Rescued, UnattendedExecs rose by %d, %d, %d, %d, want 0, 1, 0, 0", w, s, r, u)
			}
		}},
		{name: "fire-and-forget operation runs on its sender too", crew: true, run: func(t *testing.T, e *env) {
			before := e.rt.Metrics().Totals
			e.sender.ExecuteAsync(e.key, opAdd, Args{U: [4]uint64{1}})
			e.sender.Drain()
			if w, s, r, u := delta(e, before); w != 0 || s != 0 || r != 0 || u != 1 {
				t.Errorf("Wakes, Served, Rescued, UnattendedExecs rose by %d, %d, %d, %d, want 0, 0, 0, 1", w, s, r, u)
			}
			if n := e.parked(); n != 0 {
				t.Errorf("the parked thread returned from ServeWait %d times, want 0", n)
			}
		}},
		{name: "Unregister drops the mark, before and after Shutdown", run: func(t *testing.T, e *env) {
			e.idle.Unregister()
			if n := e.p.idle.Load(); n != 0 {
				t.Fatalf("idle count after Unregister = %d, want 0", n)
			}
			late, err := e.rt.RegisterAt(1)
			if err != nil {
				t.Fatal(err)
			}
			late.Idle()
			if n := e.p.idle.Load(); n != 1 {
				t.Fatalf("idle count after Idle = %d, want 1", n)
			}
			// The sender and the idle thread are still registered, as a
			// pool's sessions are when its store shuts down.
			if _, err := e.rt.Shutdown(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Fatalf("Shutdown with threads registered = %v, want ErrTimeout", err)
			}
			late.Unregister()
			if n := e.p.idle.Load(); n != 0 {
				t.Errorf("idle count after Shutdown and Unregister = %d, want 0", n)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			rt := newTestRuntime(t, 2)
			e := &env{rt: rt, p: rt.Partition(1), key: keyFor(t, rt, 1)}
			var err error
			if e.sender, err = rt.RegisterAt(0); err != nil {
				t.Fatal(err)
			}
			defer e.sender.Unregister()
			if row.crew {
				var stop func()
				e.parked, stop = parkedServer(t, rt, 1, 10*time.Second)
				defer stop()
			}
			if e.idle, err = rt.RegisterAt(1); err != nil {
				t.Fatal(err)
			}
			defer e.idle.Unregister()
			e.idle.Idle()
			if n := e.p.idle.Load(); n != 1 {
				t.Fatalf("idle count after Idle = %d, want 1", n)
			}
			row.run(t, e)
		})
	}
}

// TestRescueRaceIdleBorrow: a thread of locality 1 alternates between Idle
// and a synchronous call — a pooled session put back and borrowed again —
// while a sender adds to a counter of locality 1, so the sender finds the
// thread idle (and runs its add inline, or drains its own ring when the
// thread went idle after the add was staged) or busy (and rings for it, and
// the thread's wait serves the burst) at any point of the alternation. Every
// add is applied exactly once. The counter is a plain variable, so the race
// detector also checks that the two threads' executions are ordered by the
// ring's claim and by the release of the sender's last slot.
func TestRescueRaceIdleBorrow(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	sender, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Unregister()
	// Registered here, not in its goroutine, so locality 1 is never empty.
	borrower, err := rt.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	var stopped atomic.Bool
	var borrows uint64
	done := make(chan struct{})
	home := keyFor(t, rt, 0)
	go func() {
		defer close(done)
		defer borrower.Unregister()
		for !stopped.Load() {
			borrower.Idle()
			runtime.Gosched()
			// A call toward the sender's locality, so the borrower waits —
			// serving locality 1 — until the sender's own wait serves it.
			if res := borrower.ExecuteSync(home, opPut, Args{U: [4]uint64{1}}); res.Err != nil {
				t.Errorf("borrower put: %v", res.Err)
				return
			}
			borrows++
		}
	}()

	count := uint64(0)
	inc := func(*Partition, uint64, *Args) Result {
		count++
		runtime.Gosched()
		return Result{U: count}
	}
	key := keyFor(t, rt, 1)
	const n = 2000
	for i := uint64(1); i <= n; i++ {
		if res := sender.ExecuteSync(key, inc, Args{}); res.Err != nil || res.U != i {
			t.Fatalf("add %d = (%d, %v)", i, res.U, res.Err)
		}
	}
	// The borrower's last call toward locality 0 needs the sender to serve.
	stopped.Store(true)
	for waiting := true; waiting; {
		select {
		case <-done:
			waiting = false
		default:
			sender.Serve()
			runtime.Gosched()
		}
	}
	if count != n {
		t.Errorf("count = %d, want %d", count, n)
	}
	m := rt.Metrics().Totals
	if m.Served+m.Rescued+m.UnattendedExecs != n+borrows {
		t.Errorf("Served + Rescued + UnattendedExecs = %d + %d + %d, want %d adds + %d borrower puts",
			m.Served, m.Rescued, m.UnattendedExecs, n, borrows)
	}
	t.Logf("Served %d, Rescued %d, UnattendedExecs %d, borrower puts %d", m.Served, m.Rescued, m.UnattendedExecs, borrows)
}
