package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/chaos"
)

// TestOneDrain stages the same ring states by hand on one sender's ring to
// partition 1 and drives each through every caller of Thread.drain — the
// doorbell pass and the full-scan pass of serve, a sender serving its own
// ring toward a locality with no threads, the stall rescue, the shutdown
// sweep — checking what only the caller decides (the bound, the counter) and
// what none of them may change: FIFO order from the cursor, the stop at a
// gap, a claim held elsewhere, the sender's wake. The gap row is the case a
// reviving server leaves behind, unreachable through the public API in a
// deterministic test.
func TestOneDrain(t *testing.T) {
	const bursts, ops = 5, 5 * burstSize // more than one serve batch, less than a ring
	batch := (DefaultServeBatch + burstSize - 1) / burstSize * burstSize

	type env struct {
		rt     *Runtime
		sender *Thread // at locality 0; the staged ring is its ring to p
		server *Thread // at locality 1; nil when the caller needs none
		p      *Partition
		r      *dring
		s      *slot // the sender's newest slot, what a wait would be on
	}
	states := []struct {
		name  string
		chaos chaos.Config
		held  bool // the test holds the ring's claim during the call
		stage func(e *env, fill func(i int))
		// want gives the operations executed by a serve pass (bounded) and
		// by the whole-ring callers.
		pass, others int
		rearm        bool // a doorbell pass leaves the ring's bit set
	}{
		{name: "empty", stage: func(e *env, fill func(int)) {}},
		{name: "pending bursts", pass: batch, others: ops, rearm: true,
			stage: func(e *env, fill func(int)) {
				for i := 0; i < bursts; i++ {
					fill(i)
				}
			}},
		{name: "gap ahead of the slot", stage: func(e *env, fill func(int)) { fill(1) }},
		{name: "claimed by another server", held: true, rearm: true,
			stage: func(e *env, fill func(int)) {
				for i := 0; i < bursts; i++ {
					fill(i)
				}
			}},
		{name: "DropClaim injected", chaos: chaos.Config{Seed: 1, DropClaimProb: 1}, rearm: true,
			stage: func(e *env, fill func(int)) {
				for i := 0; i < bursts; i++ {
					fill(i)
				}
			}},
	}
	callers := []struct {
		name      string
		server    bool // a thread is registered at locality 1
		rescued   bool // credits Rescued, not Served
		wholeRing bool
		run       func(e *env)
	}{
		{name: "bell pass", server: true, run: func(e *env) {
			e.p.bell.Set(e.sender.id)
			e.server.serve()
		}},
		{name: "full-scan pass", server: true, run: func(e *env) {
			e.server.forceFullScan()
			e.server.serve()
		}},
		{name: "no-workers rescue", rescued: true, wholeRing: true, run: func(e *env) {
			e.sender.selfServe(e.p, e.s)
		}},
		{name: "stall rescue", server: true, rescued: true, wholeRing: true, run: func(e *env) {
			e.sender.stalledOn(e.p, e.s)
		}},
		{name: "shutdown sweep", wholeRing: true, run: func(e *env) {
			if _, err := e.rt.Shutdown(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Errorf("Shutdown with a live thread: err = %v, want ErrTimeout", err)
			}
		}},
	}

	for _, st := range states {
		for _, c := range callers {
			t.Run(st.name+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				rt, _ := newChaosRuntime(t, 2, st.chaos, nil)
				e := &env{rt: rt, p: rt.Partition(1)}
				var err error
				if e.sender, err = rt.RegisterAt(0); err != nil {
					t.Fatal(err)
				}
				defer e.sender.Unregister()
				if c.server {
					if e.server, err = rt.RegisterAt(1); err != nil {
						t.Fatal(err)
					}
					defer e.server.Unregister()
				}
				e.r = e.p.rings[e.sender.id].Load()
				e.s = e.r.Slot(0)
				key := keyFor(t, rt, 1)
				st.stage(e, func(i int) {
					e.s = e.r.Slot(i)
					m := e.s.Payload()
					m.n = burstSize
					for j := range m.ops {
						m.ops[j] = opEntry{op: opAdd, key: key, args: Args{U: [4]uint64{1}}, fire: true}
					}
					e.s.Publish()
				})

				want := st.others
				if !c.wholeRing {
					want = st.pass
				}
				if st.held && !e.r.TryClaim() {
					t.Fatal("fresh ring already claimed")
				}
				// An armed park slot stands in for the parked sender.
				rt.parker.Prepare(e.sender.id)
				c.run(e)
				rt.parker.Cancel(e.sender.id)

				shard := e.p.Data().(*counterShard)
				shard.mu.Lock()
				got := int(shard.m[key])
				shard.mu.Unlock()
				if got != want {
					t.Errorf("executed %d operations, want %d", got, want)
				}
				if head, at := e.r.Head(), e.r.Slot(want/burstSize); head != at {
					t.Errorf("cursor not at slot %d", want/burstSize)
				}
				m := rt.Metrics().Totals
				served, rescued := uint64(want), uint64(0)
				if c.rescued {
					served, rescued = 0, served
				}
				if m.Served != served || m.Rescued != rescued {
					t.Errorf("Served = %d, Rescued = %d, want %d, %d", m.Served, m.Rescued, served, rescued)
				}
				if woken := uint64(min(want, 1)); m.Wakes != woken {
					t.Errorf("sender woken %d times, want %d", m.Wakes, woken)
				}
				if c.name == "bell pass" && e.p.bell.Any() != st.rearm {
					t.Errorf("doorbell bit set after the pass = %v, want %v", !st.rearm, st.rearm)
				}
			})
		}
	}
}

// TestDrainLeavesHeldCompletion checks that Drain waits only for what no
// completion awaits: with a synchronous completion toward a locality whose
// one thread never serves still held by the caller, Drain returns at once
// and leaves the completion pending, and the completion resolves once that
// thread serves. A Drain that waited out the newest sent slot instead would
// run the operation by stall rescue (or hang), so the completion would be
// ready after it.
func TestDrainLeavesHeldCompletion(t *testing.T) {
	t.Parallel()
	rt := newTestRuntime(t, 2)
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	t1, err := rt.RegisterAt(1) // keeps locality 1 attended; serves only below
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Unregister()

	var c Completion
	t0.ExecuteInto(&c, keyFor(t, rt, 1), opPut, Args{U: [4]uint64{9}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t0.Drain()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain waited for a synchronous completion the caller holds")
	}
	if _, ok := c.Ready(); ok {
		t.Fatal("the held completion ran before its locality served: Drain waited for it")
	}
	for t1.Serve() == 0 {
		time.Sleep(time.Millisecond)
	}
	res, ok := c.Ready()
	if !ok || res.Err != nil || res.U != 9 {
		t.Fatalf("after Serve: Ready = (%+v, %t), want (9, true)", res, ok)
	}
}

// TestRingFullReapsWithoutDrain fills a sender's whole ring with timed-out
// synchronous operations toward a wedged locality (the test holds the ring's
// claim, so neither the locality's serving thread nor the stall rescue can
// run them), one of which panics, and then lets the locality serve. The sender never calls Drain: the
// ring-full path alone must reap every given-up entry as it comes back round
// to its slot, so RingDepth+1 further calls all succeed, the panic reaches
// OnPanic once and the timed-out operations still landed.
func TestRingFullReapsWithoutDrain(t *testing.T) {
	t.Parallel()
	const depth = 4
	var panics atomic.Int32
	rt, err := New(Config{Partitions: 2, RingDepth: depth, Init: newCounterInit(), OpTimeout: 50 * time.Millisecond,
		OnPanic: func(PanicInfo) { panics.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	defer startServer(t, rt, 1)() // serves every ring of locality 1 but the claimed one
	r := rt.Partition(1).rings[t0.id].Load()
	if !r.TryClaim() {
		t.Fatal("fresh ring already claimed")
	}

	key := keyFor(t, rt, 1)
	for i := 0; i < depth; i++ {
		op := opAdd
		if i == depth/2 {
			op = opPanic
		}
		if res := t0.ExecuteSync(key, op, Args{U: [4]uint64{1}}); !errors.Is(res.Err, ErrTimeout) {
			t.Fatalf("wedged call %d: err = %v, want ErrTimeout", i, res.Err)
		}
	}
	if m := rt.Metrics().Totals; m.Abandoned != depth {
		t.Fatalf("Abandoned = %d, want %d", m.Abandoned, depth)
	}

	r.Unclaim()
	for i := 0; i < depth+1; i++ {
		if res := t0.ExecuteSync(key, opAdd, Args{U: [4]uint64{1}}); res.Err != nil {
			t.Fatalf("call %d after the wedge: err = %v (a given-up entry was never reaped)", i, res.Err)
		}
	}
	if n := panics.Load(); n != 1 {
		t.Errorf("OnPanic ran %d times, want 1", n)
	}
	if m := rt.Metrics().Totals; m.Abandoned != depth {
		t.Errorf("Abandoned = %d, want %d", m.Abandoned, depth)
	}
	if res := t0.ExecuteSync(key, opGet, Args{}); res.U != 2*depth {
		t.Errorf("counter = %+v, want %d (the timed-out adds still land)", res, 2*depth)
	}
}

// TestRingFullHeldDeadline sends into a ring whose every slot holds results
// the caller has not consumed, under OpTimeout: the send waits for a slot
// only the caller can free, and the call's deadline must end that wait. The
// slot it waits on carries a slightly slow operation, so it is released while
// the waiter is still in its spin stage; a waiter kept across the ring-full
// loop then never read the clock again, and the send spun forever in about
// half the rounds.
func TestRingFullHeldDeadline(t *testing.T) {
	t.Parallel()
	rt, err := New(Config{Partitions: 2, RingDepth: 2, Init: newCounterInit(), OpTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t0, err := rt.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Unregister()
	defer startServer(t, rt, 1)()
	key := keyFor(t, rt, 1)
	held := make([]Completion, 2*burstSize) // two full slots: the whole ring
	for round := 0; round < 10; round++ {
		for i := range held {
			op := opAdd
			if i == 0 {
				op = opSlow(20*time.Microsecond, opAdd)
			}
			t0.ExecuteInto(&held[i], key, op, Args{U: [4]uint64{1}})
		}
		done := make(chan error, 1)
		go func() {
			var c Completion
			t0.ExecuteInto(&c, key, opAdd, Args{U: [4]uint64{1}})
			done <- c.Result().Err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("round %d: send into a ring the caller holds: err = %v, want ErrTimeout", round, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: the ring-full wait never observed its deadline", round)
		}
		for i := range held {
			if res := held[i].Result(); res.Err != nil {
				t.Fatalf("round %d: held completion %d: %v", round, i, res.Err)
			}
		}
	}
}
