package core

import (
	"errors"
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
					m.part, m.n = e.p, burstSize
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
