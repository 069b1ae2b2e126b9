package core

import (
	"math/bits"
	"time"

	"dps/internal/chaos"
	"dps/internal/obs"
	"dps/internal/parsec"
	"dps/internal/ring"
	"dps/internal/wire"
)

// Thread is a registered DPS participant. All data-structure operations go
// through a Thread; its methods must be called from one goroutine at a time.
//
// A Thread plays both roles of the peer-delegation protocol: it delegates
// operations on remote keys, and — whenever it waits (Await, ring full) — it
// serves operations other threads delegated to its locality.
//
// After Unregister the Thread is dead: every Execute form, Serve and
// Drain panics with ErrUnregistered (an unregistered thread no longer
// belongs to a locality, so silently accepting the call would corrupt the
// peer-serving protocol). Unregister itself stays idempotent.
type Thread struct {
	rt       *Runtime
	id       int
	locality int

	// opened lists the destinations that opened a burst since the thread
	// last waited: a partition whose ring's newest slot is open (msg.open),
	// or a partition of a peer whose link holds an open frame, one entry per
	// ring or link. flushOpen publishes what each still holds open and
	// empties the list. Register sizes it to every partition, so it never
	// grows.
	opened []*Partition

	// dead counts the entries of the thread's rings marked in their slot's
	// msg.dead and not yet reaped: synchronous operations whose completion
	// was given up on, whose slots the server may still hold. Drain scans
	// its rings for them only while it is non-zero.
	dead int

	// serveCursor rotates the starting ring of the full-scan pass so a
	// locality's threads tend to scan different senders first.
	serveCursor int

	// servePass counts serve passes; every serveFullScanEvery-th pass
	// ignores the doorbell and scans the whole ring table, so a doorbell
	// bit lost to a fault delays service instead of wedging it.
	servePass uint64

	// links[i] is this thread's sender link to peer i (Config.Peers
	// order), pinned to one pooled connection so the thread's wire
	// bursts stay ordered. Nil when no peers are configured.
	links []*wire.Link

	// woutstanding tracks wire tokens of fire-and-forget operations
	// delegated to peers, awaited by the Drain barrier.
	woutstanding []wireRef

	// parkTimer is the reusable timer backing this thread's park timeouts
	// (ring.Parker.Park lazily allocates it once, then resets it), so a
	// steady-state parked waiter allocates nothing.
	parkTimer *time.Timer

	// inline is the argument record an inline operation runs against: an op
	// takes its arguments by address and the call is indirect, so a by-value
	// copy made per call would escape to the heap. Like a burst entry's
	// arguments it is valid for the duration of one call only.
	inline Args

	smr *parsec.Thread

	// chaos caches rt.chaos (immutable after New) so the serve scan and
	// execute paths test one pointer off the hot Thread struct instead of
	// chasing rt. Nil for the shutdown sweep's admin thread: the sweep
	// drains without injecting further faults.
	chaos *chaos.Injector

	// idle is the thread's Idle mark, counted in its partition's idle until
	// the next entry point clears it.
	idle bool

	unregistered bool
}

// serveFullScanEvery is the doorbell fallback cadence: one serve pass in
// this many scans every registered ring regardless of doorbell state.
// Power of two so the pass test is a mask.
const serveFullScanEvery = 64

// Completion is the completion record ExecuteInto fills (§3.1). Ready
// reports (and Result returns) the operation's outcome once the owning
// locality has executed it.
//
// Completion is used both by pointer (ExecuteInto's caller-owned records)
// and by value: the synchronous paths (ExecuteSync, ExecutePartition,
// ExecuteAll) build stack completions and await them in place, so a remote
// synchronous delegation performs no heap allocation.
//
// A completion has one life whichever tier carried the operation: issue
// fills it, it is pending until the ring slot's toggle clears or the wire
// token's burst resolves, and then exactly one of finish (the result is
// consumed) or abandon (the wait was given up) makes it done.
type Completion struct {
	t *Thread
	// p and key are the operation's destination partition and key.
	p   *Partition
	key uint64
	// target is what the operation rides in — a ring slot or a wire token —
	// and is zero once the completion is done (at issue already, for an
	// operation that ran inline or was never staged; res then holds the
	// outcome).
	target
	// idx is the operation's entry index within the slot's burst.
	idx  int
	res  Result
	done bool
	// sent is the send-side clock stamp for the send→completion latency
	// histogram (zero for inline completions or with timing disabled).
	sent obs.Stamp
}

// ID returns the thread's runtime-unique id.
func (t *Thread) ID() int { return t.id }

// Locality returns the partition/locality index the thread is bound to.
func (t *Thread) Locality() int { return t.locality }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// Unregister runs Drain — it waits for the thread's fire-and-forget
// operations to complete and reaps the entries of operations it gave up on,
// so the thread id's rings return to the runtime clean — then removes the
// thread from the runtime. A synchronous completion the caller still holds
// is not waited for. After Shutdown the waits are skipped (the shutdown sweep
// already drained or abandoned everything). The Thread must not be used
// afterwards.
func (t *Thread) Unregister() {
	if t.unregistered {
		return
	}
	if !t.rt.down.Load() {
		t.Drain()
	}
	t.clearIdle()
	t.unregistered = true
	t.rt.unregister(t)
}

// partitionFor maps a key to its owning partition.
func (t *Thread) partitionFor(key uint64) *Partition {
	return t.rt.parts[t.rt.ns.Lookup(t.rt.cfg.Hash(key))]
}

// checkLive panics with ErrUnregistered on use-after-Unregister and with
// ErrClosed on use after Shutdown, the documented misuse paths. Every entry
// point calls it, so it is also where an Idle mark ends.
func (t *Thread) checkLive() {
	if t.unregistered {
		panic(ErrUnregistered)
	}
	if t.rt.down.Load() {
		panic(ErrClosed)
	}
	t.clearIdle()
}

// Idle declares that the thread makes no call, and so serves nothing, until
// its next call: a sender then counts it like a parked thread
// (Partition.unattended), and an operation toward its locality runs on that
// sender instead of waiting for a thread that will not come. The next entry
// point — any Execute form, Flush, Drain, Serve, ServeWait — ends the
// declaration; Unregister drops it. Completion.Ready and Result do not, so a
// thread declares itself idle with nothing left to await. Before it marks,
// Idle serves what its locality's doorbell shows pending: a sender that found
// the thread in a call sent it there and may be parked on it, and nothing
// else would wake that sender before its park timeout. Idle publishes
// nothing: open bursts stay open, so fire-and-forget operations keep packing
// into one slot per destination across marks. It marks after Shutdown
// too, so a call that ended in ErrClosed can still be followed by one, and
// panics with ErrUnregistered after Unregister. A thread that never
// calls Idle is counted as running, which is always safe: a declaration only
// lets senders run more of their own operations, and a sender runs one
// inline only when nothing it sent earlier is still unserved, and executes
// its ring under the claim, so every operation still runs exactly once and in
// issue order. mcd's sessions mark after every call, and PeerServer marks
// each thread it puts back in its pool, so an operation toward a locality
// whose threads are all parked or between calls runs on its sender without a
// wake.
func (t *Thread) Idle() {
	if t.unregistered {
		panic(ErrUnregistered)
	}
	if !t.idle {
		if t.rt.parts[t.locality].bell.Any() {
			t.serve()
		}
		t.idle = true
		t.rt.parts[t.locality].idle.Add(1)
	}
}

// clearIdle ends the thread's Idle mark, if any.
func (t *Thread) clearIdle() {
	if t.idle {
		t.idle = false
		t.rt.parts[t.locality].idle.Add(-1)
	}
}

// execInline runs op locally, against the thread's own argument record, with
// metric attribution to partition p: one count of counter (LocalExec, or
// UnattendedExec for an operation toward another locality) plus a local-exec
// latency observation. The clock is consulted once, through the obs layer, so
// disabling timing removes the reads entirely.
func (t *Thread) execInline(p *Partition, key uint64, op Op, args Args, counter obs.Counter) Result {
	t.rt.rec.Add(t.id, p.id, counter, 1)
	start := t.rt.rec.Start()
	t.inline = args
	res := t.runLocal(p, key, op, &t.inline)
	t.rt.rec.Observe(t.id, obs.HistLocalExec, t.rt.rec.Since(start))
	// The record outlives the call; the caller's reference argument must not.
	t.inline.P = nil
	return res
}

// runLocal executes op inline on the calling thread, inside a quiescence
// read-side section so the op may safely traverse nodes being retired by
// other threads' ops.
func (t *Thread) runLocal(p *Partition, key uint64, op Op, args *Args) Result {
	t.smr.Enter()
	defer t.smr.Exit()
	return op(p, key, args)
}

// issue is the one send path behind every Execute form: it routes the
// operation to partition p and fills c. It is also the one place that decides
// who runs an operation. One on the caller's own locality runs at once and c
// is done. So does one toward a locality no thread will serve — every thread
// there parked or Idle, or none left (Partition.unattended) — where inline
// execution, a remote-memory access in the paper's terms, is the way to make
// progress without a wake; unless the thread still has an earlier operation
// toward p unserved (caughtUp), which must run first. Otherwise it is staged
// toward p, into the thread's link to the owning peer process or into the
// open burst of its ring to p, the send is counted and traced, and c is
// pending. If the operation was never staged (an unregistered op or a
// closed link toward a peer; shutdown or the deadline while the ring was
// full), c is done with that error as its result, and a fire-and-forget
// drop shows in the Abandoned counter.
//
// issue publishes only where it waits — a full ring, the wire tier's bound
// on outstanding tokens — or a burst the operation fills: otherwise the
// operation sits in its destination's open burst until the thread next waits
// (flushOpen). fire marks a fire-and-forget operation, whose burst the Drain
// barrier waits out and whose c the caller discards; call is the calling
// operation's deadline, which bounds the ring-full wait (see newWaiter).
// The argument copy confines args' escape to the peer branch, the only one
// that needs its address.
func (t *Thread) issue(c *Completion, p *Partition, key uint64, op Op, args Args, fire bool, call *time.Time) {
	*c = Completion{t: t, p: p, key: key}
	if p.peer == nil {
		if p.id == t.locality {
			c.res, c.done = t.execInline(p, key, op, args, obs.LocalExec), true
			return
		}
		// caughtUp first: in a stream it finds the ring's open slot in the
		// thread's own lines, before unattended reads shared counters.
		if t.caughtUp(p) && p.unattended() {
			c.res, c.done = t.execInline(p, key, op, args, obs.UnattendedExec), true
			return
		}
	}
	if !fire {
		c.sent = t.rt.rec.Start()
	}
	var err error
	if p.peer != nil {
		a := args
		c.tok, err = t.stageRemote(p, key, op, &a, fire)
	} else if c.slot, c.idx = t.pack(p, key, op, args, fire, call); c.slot == nil {
		err = ErrTimeout
		if t.rt.down.Load() {
			err = ErrClosed
		}
	} else if fire {
		t.rt.rec.Add(t.id, p.id, obs.AsyncSend, 1)
	} else {
		t.rt.rec.Add(t.id, p.id, obs.RemoteSend, 1)
	}
	if err != nil {
		if fire {
			t.rt.rec.Add(t.id, p.id, obs.Abandoned, 1)
		}
		c.res, c.done = Result{Err: err}, true
		return
	}
	if t.rt.tracing {
		t.rt.tracer.OnSend(t.id, p.id, key, !fire)
	}
}

// ExecuteInto performs op on the data associated with key (§3.1's
// completion_rec_t execute(dps, key, op, args...)), writing the completion
// record into c, storage the caller owns (a stack value, an array it reuses),
// so a thread can keep several delegations in flight — issue a wave of
// operations, then await them in any order — without touching the heap. c is
// overwritten; it must not be a completion that is still pending. If key
// belongs to the calling thread's locality the operation runs immediately as
// a function call and c is already done. Otherwise the request is delegated
// to the owning locality and c becomes ready once a peer thread there
// executes it; poll it with Ready or block with Result, both of which serve
// requests delegated to this thread's locality in the meantime. When every
// thread of the owning locality is parked or Idle, the operation runs on this
// thread at once, as a local one does, once everything this thread sent there
// before it has run.
//
// Operations to the same partition pack into one burst slot, whatever the
// thread sends elsewhere in between: each destination keeps its own open
// burst, published when it fills or when the thread next waits — a
// completion polled or awaited, Drain, Flush, Serve.
//
// A completion holds its burst slot until its result is consumed (Ready
// returning true, Result), so a thread may hold at most Runtime.RingDepth
// unconsumed completions toward one partition: one more send would wait in
// the ring-full path for a slot only the thread itself can free. That wait is
// bounded by Config.OpTimeout, and c then resolves to ErrTimeout with the
// operation never staged.
func (t *Thread) ExecuteInto(c *Completion, key uint64, op Op, args Args) {
	t.checkLive()
	var call time.Time
	t.issue(c, t.partitionFor(key), key, op, args, false, &call)
}

// ExecuteSync is ExecuteInto followed by completion (§3.1 notes the
// synchronous API "directly following execute with a loop on
// await_completion"), one Config.OpTimeout deadline spanning both the
// ring-full wait and the await. The completion record lives on the caller's
// stack, so a remote synchronous delegation allocates nothing. A synchronous
// operation joins its partition's open burst when there is one — one slot
// claim covers the run — and every open burst is published before the await.
//
// A timed-out operation may still execute later — the runtime then discards
// its result and hands any panic it raises to Config.OnPanic — but it holds
// its burst entry until the owning locality releases the slot, so a locality
// that stays wedged past every timeout eventually exerts ring-full
// back-pressure on new sends.
func (t *Thread) ExecuteSync(key uint64, op Op, args Args) Result {
	t.checkLive()
	var c Completion
	var call time.Time
	t.issue(&c, t.partitionFor(key), key, op, args, false, &call)
	return c.await(&call)
}

// ExecuteAsync delegates op without a completion record (§4.4): it returns
// as soon as the request is packed into a burst slot of the destination
// ring. Asynchronous operations to the same partition share one slot claim
// however they interleave with operations elsewhere: each destination keeps
// its own open burst, published when it fills or when the thread next waits
// (a completion polled or awaited, Flush, Serve), at the latest by Drain.
// Toward a peer process the burst is a wire frame, which operations toward
// any of that peer's partitions share. Results are discarded; ordering to
// the same partition is preserved (each destination has one open burst, the
// ring is FIFO and bursts execute in pack order), so read-your-writes and
// monotonic-writes hold for subsequent operations from this thread. Use
// Drain as the barrier before depending on completion; on a ring nothing is
// recorded for it beside the slot, whose header marks the burst as one Drain
// waits out. Its ring-full wait has no deadline: there is no Result to carry
// ErrTimeout. What args.P references, a []byte payload say, belongs to the
// runtime until the operation has run: the caller must not modify it before
// Drain returns.
func (t *Thread) ExecuteAsync(key uint64, op Op, args Args) {
	t.checkLive()
	var c Completion
	t.issue(&c, t.partitionFor(key), key, op, args, true, nil)
}

// ExecuteLocal runs op on the calling thread regardless of which locality
// owns key — the local-execution optimization (§4.4), intended for read-only
// operations on data-structures whose concurrent implementation already
// tolerates cross-locality readers. The operation still sees the owning
// partition's shard.
func (t *Thread) ExecuteLocal(key uint64, op Op, args Args) Result {
	t.checkLive()
	p := t.partitionFor(key)
	if p.peer != nil {
		// The shard lives in another process; local execution is
		// impossible, so the operation delegates like ExecuteSync.
		return t.ExecutePartition(p.id, key, op, args)
	}
	return t.execInline(p, key, op, args, obs.LocalExec)
}

// ExecutePartition is ExecuteSync on an explicit partition instead of
// routing by key hash. It is used by operations that target a partition as
// a whole — e.g. the priority-queue dequeue that follows a broadcast findMin
// (§3.4). The key is passed through to op uninterpreted.
func (t *Thread) ExecutePartition(part int, key uint64, op Op, args Args) Result {
	t.checkLive()
	var c Completion
	var call time.Time
	t.issue(&c, t.rt.parts[part], key, op, args, false, &call)
	return c.await(&call)
}

// ExecuteAll broadcasts op to every partition — the range-operation API
// (§4.4) — and merges the per-partition results with agg, which receives
// them indexed by partition id; one Config.OpTimeout deadline covers the
// whole broadcast. ExecuteAll is not linearizable with respect to concurrent
// single-key operations: each partition executes its share at an independent
// point in time.
func (t *Thread) ExecuteAll(op Op, args Args, agg func(results []Result) Result) Result {
	t.checkLive()
	parts := t.rt.parts
	completions := make([]Completion, len(parts))
	var call time.Time
	// Every other partition first, each share into its destination's open
	// burst, all published before the caller's own share runs, so the
	// delegated shares proceed in parallel with it.
	for i, p := range parts {
		if i != t.locality {
			t.issue(&completions[i], p, p.lo, op, args, false, &call)
		}
	}
	t.flushOpen()
	own := parts[t.locality]
	t.issue(&completions[own.id], own, own.lo, op, args, false, &call)
	results := make([]Result, len(parts))
	for i := range completions {
		results[i] = completions[i].await(&call)
	}
	if agg == nil {
		return Result{}
	}
	return agg(results)
}

// Flush publishes every open burst of the thread without blocking: packed
// operations become visible to their destination localities, whose doorbells
// are rung. ExecuteInto and ExecuteAsync leave each destination's burst open
// so later operations toward it share the slot; every blocking call
// (completion await, Drain, Serve) publishes them all first, so Flush is
// only needed when a sender goes quiet without ever blocking — e.g. a
// producer that issues a few fire-and-forget operations and then leaves
// the runtime alone.
func (t *Thread) Flush() {
	t.checkLive()
	t.flushOpen()
}

// Drain publishes every open burst, then blocks until every fire-and-forget
// asynchronous operation issued by this thread has been executed, serving
// delegated requests while it waits. It is the completion barrier §4.4
// requires between dependent asynchronous operations. Drain also reaps the
// entries of operations given up on (Completion.abandon) once their servers
// release them, so after Drain returns the thread's rings are fully reusable
// (Unregister relies on this before recycling the thread id). A synchronous
// completion the caller still holds is left alone: Drain waits only for what
// no completion will await. It reads all of this off the rings: per ring, the
// newest owed slot covers every earlier one. If the runtime shuts down
// mid-drain, Drain stops waiting — the shutdown sweep owns the rings from
// then on.
func (t *Thread) Drain() {
	t.checkLive()
	t.flushOpen()
	for _, p := range t.rt.parts {
		if p.peer != nil || p.id == t.locality {
			continue
		}
		r := p.rings[t.id].Load()
		t.awaitServed(p, target{slot: owed(r)})
		for i := 0; i < r.Depth() && t.dead > 0; i++ {
			if s := r.Slot(i); !s.Pending() {
				t.reap(p, s)
			}
		}
	}
	if len(t.woutstanding) > 0 {
		t.drainWire()
	}
}

// owed returns the newest slot of the sender's ring r that is pending and
// carries a fire-and-forget entry or an entry given up on, nil if none does.
// The walk goes back from the newest sent slot and stops at the first that is
// not pending: rings drain in FIFO order, so nothing older is pending either.
// Waiting this one slot out waits out every owed slot before it.
func owed(r *dring) *slot {
	for i := 0; i < r.Depth(); i++ {
		s := r.Sent(i)
		if !s.Pending() {
			return nil
		}
		if m := s.Payload(); m.fire || m.dead != 0 {
			return s
		}
	}
	return nil
}

// awaitServed blocks until on — a fire-and-forget burst toward p, which no
// completion awaits — has been executed, and reports false when the wait
// ended first: the runtime shut down, or the bound on a wait for a peer
// process expired. The Drain barrier is outside the OpTimeout rule.
func (t *Thread) awaitServed(p *Partition, on target) bool {
	if !on.pending() {
		return true
	}
	w := newWaiter(t, p, on, nil)
	return w.await() == nil
}

// pack stages one operation toward partition p into its ring's open burst —
// the ring's newest claimed slot, while its msg.open holds — or, when the
// ring has none, into a freshly claimed slot that becomes it, waiting out
// ring-full back-pressure. A burst is published when it fills; until then it
// stays open, whatever the thread sends elsewhere, until the thread waits
// (flushOpen). Returns a nil slot only if the runtime shut down (or the
// deadline expired) while the ring was full — the operation was never staged.
//
// Invariant: a ring's open slot is its newest claimed slot, so the server side
// never observes a published slot behind an unpublished one (Drain would stop
// at the gap and strand it). A burst split by chaos is published before the
// next claim for the same reason.
func (t *Thread) pack(p *Partition, key uint64, op Op, args Args, fire bool, call *time.Time) (*slot, int) {
	s := p.rings[t.id].Load().Sent(0)
	m := s.Payload()
	if !m.open || (t.chaos != nil && t.chaos.SplitBurst()) {
		if m.open {
			t.publish(p, s)
		}
		if s = t.claimSlot(p, call); s == nil {
			return nil, 0
		}
		m = s.Payload()
		m.n, m.fire, m.open = 0, false, true
		t.listOpen(p)
	}
	idx := int(m.n)
	t.fillEntry(m, idx, key, op, args, fire)
	m.n++
	if int(m.n) == burstSize {
		t.publish(p, s)
	}
	return s, idx
}

// listOpen records that p's ring or link holds an open burst, once per ring
// or link: partitions of one peer share its link.
func (t *Thread) listOpen(p *Partition) {
	for _, q := range t.opened {
		if q == p || (p.peer != nil && q.peer == p.peer) {
			return
		}
	}
	// Register sizes opened to every partition and a destination is listed
	// once, so this append never grows it.
	t.opened = append(t.opened, p)
}

// caughtUp reports whether every operation the thread sent toward p has run:
// the newest slot of its ring to p — Sent(0) — is neither pending nor open.
// Rings drain in FIFO order, so that one slot covers every earlier one.
func (t *Thread) caughtUp(p *Partition) bool {
	s := p.rings[t.id].Load().Sent(0)
	return !s.Pending() && !s.Payload().open
}

// fillEntry writes one operation into entry idx of a sender-owned burst. A
// fire-and-forget entry marks the burst as one the Drain barrier waits out.
func (t *Thread) fillEntry(m *msg, idx int, key uint64, op Op, args Args, fire bool) {
	e := &m.ops[idx]
	e.op = op
	e.key = key
	e.args = args
	e.res = Result{}
	e.panicVal = nil
	e.fire = fire
	if fire {
		m.fire = true
	} else {
		m.live++
	}
}

// flushOpen publishes every open burst of the thread: the open slot of each
// listed ring, and each listed link's open frame. It is the publish step of
// every point where the thread waits; elsewhere only a full burst is
// published. No-op when nothing is open.
func (t *Thread) flushOpen() {
	for _, p := range t.opened {
		if p.peer != nil {
			t.links[p.peerIdx].Flush()
		} else if s := p.rings[t.id].Load().Sent(0); s.Payload().open {
			t.publish(p, s)
		}
	}
	t.opened = t.opened[:0]
}

// publish transfers s, the open slot of the thread's ring to p, to the server
// side (all entry writes happen-before) and rings p's doorbell so serving
// threads find the ring without a full scan.
func (t *Thread) publish(p *Partition, s *slot) {
	m := s.Payload()
	m.open = false
	n := int(m.n)
	s.Publish()
	if t.chaos == nil || !t.chaos.DropDoorbell() {
		p.bell.Set(t.id)
		// Wake one parked waiter of the destination locality so the burst
		// is served without waiting out a park timeout. Picking claims the
		// waiter's parked bit, so concurrent senders wake distinct waiters.
		// A dropped doorbell (chaos) drops the wake too: recovery is the
		// woken-by-timeout full scan, exactly the fault being injected.
		if idx, ok := p.parked.Pick(); ok && t.rt.parker.Wake(idx) {
			t.rt.rec.Add(t.id, p.id, obs.Wakes, 1)
		}
	}
	t.rt.rec.ObserveBurst(t.id, n)
}

// claimSlot acquires the next free slot of this thread's ring to partition
// p, serving its own locality while the ring is full (§4.4: "the thread
// waits for an available request slot, while performing operations
// delegated to it"). The ring must have no open slot. A slot is free
// once the server side has finished with it (toggle clear) and every
// synchronous result it carried has been consumed (live == 0); a released
// slot whose results belong to completions given up on is reaped on the
// spot. The thread waits here, so it publishes every open burst first.
// Returns nil only if the runtime shuts down — or the calling operation's
// deadline (call, see newWaiter) expires — while the ring is full.
func (t *Thread) claimSlot(p *Partition, call *time.Time) *slot {
	r := p.rings[t.id].Load()
	s := r.SendSlot()
	// The chaos hook simulates a full ring to exercise the back-pressure
	// path.
	for s.Pending() || !s.Payload().free() || (t.chaos != nil && t.chaos.RingFull()) {
		t.rt.rec.Add(t.id, p.id, obs.RingFull, 1)
		if t.rt.tracing {
			t.rt.tracer.OnRingFull(t.id, p.id)
		}
		// A released slot with dead entries frees once they are reaped.
		if !s.Pending() && s.Payload().dead != 0 {
			t.reap(p, s)
			continue
		}
		// Ring full (next slot still owned by the server side, or a result
		// unconsumed): serve our own locality instead of spinning. The wait
		// runs a round even when the slot is already released — its results
		// are then held by the caller's own completions, or the ring is full
		// by injection — so that case too observes shutdown and the deadline.
		// The waiter is a fresh one each time round, whose first round reads
		// the clock: one kept from a spin on the pending slot would go on
		// skipping the read between its spin-stage clock checks, round after
		// round, and never see the deadline.
		t.flushOpen()
		w := newWaiter(t, p, target{slot: s}, call)
		if w.await() != nil {
			return nil
		}
	}
	r.AdvanceSend()
	return s
}

// serve executes requests pending on this thread's locality and returns
// how many operations it executed. Most passes are doorbell-driven:
// snapshot-and-clear each bitmap word and visit only the sender rings whose
// bits were set, so the pass costs O(active senders), re-arming the bit of
// any ring left with work behind (claim held elsewhere, batch bound hit) so
// the next pass returns to it. Every serveFullScanEvery-th pass instead
// visits every ring of the locality, in an order rotated by serveCursor: the
// pre-doorbell behaviour, kept as the fallback that finds a ring whose
// doorbell bit was lost (chaos.DropDoorbell, or a server that died between
// Collect and drain) without a doorbell.
func (t *Thread) serve() int {
	p := t.rt.parts[t.locality]
	served := 0
	t.servePass++
	if t.servePass&(serveFullScanEvery-1) == 0 {
		t.serveCursor++
		for i := range p.rings {
			n, _ := t.drain(p, (t.serveCursor+i)%len(p.rings), DefaultServeBatch, obs.Served)
			served += n
		}
		return served
	}
	visited := 0
	for w := 0; w < p.bell.Words(); w++ {
		pending := p.bell.Collect(w)
		for pending != 0 {
			idx := ring.PopBit(w, &pending)
			visited++
			n, more := t.drain(p, idx, DefaultServeBatch, obs.Served)
			served += n
			if more {
				p.bell.Set(idx)
			}
		}
	}
	t.rt.rec.Add(t.id, p.id, obs.RingScansSkipped, uint64(len(p.rings)-visited))
	if visited > 0 {
		t.rt.rec.Add(t.id, p.id, obs.DoorbellWakes, uint64(visited))
	}
	return served
}

// drain is the one statement of "serve this ring": under the claim token of
// sender idx's ring to p, taken without waiting, it executes up to max
// pending operations in FIFO order, stopping at the first slot that is not
// pending — an empty ring, or the gap a sender's open burst leaves — credits
// them to counter (Served for the locality's own serving and the shutdown
// sweep, Rescued for a sender executing its own ring), and wakes the sender,
// which may be parked awaiting exactly those completions or a free slot of
// the drained ring (ring index and parker slot index are both the sender's
// thread id, and Wake on an unparked sender is one relaxed load). It reports
// the operations executed and whether the ring was left with visible work —
// the claim is held elsewhere, or the bound was hit — so a doorbell-driven
// caller re-arms the ring's bit.
//
// Every serving path is a caller that differs only in which rings it hands
// over, the bound and the counter (DESIGN.md §9.4 has the table). A claim
// held elsewhere means another thread is serving the ring already. A serve
// pass bounds the batch at DefaultServeBatch, which keeps one claim from
// monopolizing a busy ring: the server returns to polling its own
// completions (and other senders' rings) every batch of operations,
// mirroring ffwd's response batching.
func (t *Thread) drain(p *Partition, idx int, max int, counter obs.Counter) (int, bool) {
	r := p.rings[idx].Load()
	if r == nil {
		return 0, false
	}
	if t.chaos != nil {
		t.chaos.BeforeServe()
	}
	if !r.TryClaim() {
		return 0, true
	}
	defer r.Unclaim()
	// The callback does not escape r.Drain, so it stays on the stack
	// (TestRemoteExecuteSyncZeroAlloc).
	n := r.Drain(max, func(s *slot) int {
		return t.executeMessage(p, s)
	})
	if n > 0 {
		t.rt.rec.Add(t.id, p.id, counter, uint64(n))
		if t.rt.parker.Wake(idx) {
			t.rt.rec.Add(t.id, p.id, obs.Wakes, 1)
		}
	}
	return n, r.Head().Pending()
}

// forceFullScan makes the thread's next serve pass a full ring-table scan
// regardless of doorbell state. Park timeouts call it: a park that times
// out with no wake suggests a lost doorbell bit, and the forced scan
// rediscovers the orphaned ring within one park timeout instead of the
// serveFullScanEvery cadence.
func (t *Thread) forceFullScan() {
	t.servePass |= serveFullScanEvery - 1
}

// selfServe is the sender's half of stage 3 of the wait loop: while s, its
// burst toward p, is pending and no thread of p will serve it — p turned
// unattended after the burst was staged: issue's rule, read again on every
// round — the sender executes its own ring to p, a remote-memory access in
// the paper's terms, in FIFO order, so every earlier burst of that ring runs
// first. A claim held elsewhere is a thread of p serving the ring already. s
// is nil for a wait on a peer process, which no sender reaches into. It
// returns the operations executed.
func (t *Thread) selfServe(p *Partition, s *slot) int {
	if s == nil || !s.Pending() || !p.unattended() {
		return 0
	}
	n, _ := t.drain(p, t.id, t.rt.wholeRing(), obs.Rescued)
	return n
}

// executeMessage runs a delegated burst — every operation the slot packs,
// in pack order — publishes the results and releases the slot once, and
// returns the number of operations executed. Each operation's execution
// time lands in the served histogram (covering a sender's own too) and
// fires Tracer.OnServe. Panics inside an operation are captured per entry,
// never raised on the serving thread — and never abort the rest of the
// burst: a live synchronous awaiter re-raises its entry's panic on its own
// thread via Completion.finish; a fire-and-forget panic (which no
// completion will ever observe) goes to Config.OnPanic; so does a
// timed-out synchronous request's panic, when its sender reaps the entry.
func (t *Thread) executeMessage(p *Partition, s *slot) int {
	m := s.Payload()
	n := int(m.n)
	// Fire-and-forget panics are copied out and routed only AFTER the
	// release below: deliverPanic may itself panic (a fail-stop OnPanic),
	// and the slot must return to its sender either way or the sender's
	// drain barrier wedges on a permanently-pending slot.
	var orphaned [burstSize]PanicInfo
	norphaned := 0
	for i := 0; i < n; i++ {
		e := &m.ops[i]
		fire := e.fire
		key := e.key
		start := t.rt.rec.Start()
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					e.panicVal = rec
					t.rt.rec.Add(t.id, p.id, obs.Panics, 1)
				}
			}()
			if t.chaos != nil {
				t.chaos.BeforeOp()
			}
			e.res = t.runLocal(p, e.key, e.op, &e.args)
		}()
		d := t.rt.rec.Since(start)
		pv := e.panicVal
		e.op = nil
		e.args.P = nil
		if fire {
			// Nobody will read a fire-and-forget result: drop its
			// references before the release so the slot doesn't pin the
			// op's result (and any captured panic) for GC until the
			// sender happens to reuse it.
			e.res = Result{}
			e.panicVal = nil
			if pv != nil {
				orphaned[norphaned] = PanicInfo{Value: pv, ThreadID: t.id, Partition: p.id, Key: key, Async: true}
				norphaned++
			}
		}
		t.rt.rec.Observe(t.id, obs.HistServed, d)
		if t.rt.tracing {
			t.rt.tracer.OnServe(t.id, p.id, key, d)
		}
	}
	s.Release()
	for i := 0; i < norphaned; i++ {
		t.rt.deliverPanic(orphaned[i])
	}
	return n
}

// Serve publishes every open burst, then processes requests pending on the
// calling thread's locality and returns how many operations were executed.
// It implements the liveness interface from §4.4: an application can
// devote a thread (or a periodic callback) to Serve so delegations
// complete even when all other locality threads are blocked outside DPS.
func (t *Thread) Serve() int {
	t.checkLive()
	t.flushOpen()
	return t.serve()
}

// ServeWait is Serve for dedicated serving loops: it publishes every open
// burst and serves pending requests, and when a pass finds nothing it
// parks the calling thread until a sender rings the locality's doorbell
// (a publish wakes a parked waiter directly) or d elapses, then serves
// whatever arrived. An operation sent while every thread of the locality is
// parked or Idle runs on its sender (Thread.issue), and the parked thread
// sleeps on. The return value counts operations executed
// across both passes. Unlike a Serve/sleep loop, an idle ServeWait loop costs no
// CPU between requests and wakes in microseconds when one lands; d only
// bounds how long a wake lost to a fault can delay service. Like every
// Thread method it panics with ErrClosed after Shutdown.
func (t *Thread) ServeWait(d time.Duration) int {
	t.checkLive()
	t.flushOpen()
	n := t.serve()
	if n > 0 {
		return n
	}
	t.park(nil, t.locality, d)
	return t.serve()
}

// Ready polls the completion (§3.1's await_completion): it returns the
// result and true if the operation has executed. While the operation is
// still pending, Ready serves one pass of requests delegated to the calling
// thread's locality — the overlap that lets all cores make progress on
// data-structure work (§4.3) — and, toward a locality with no running
// thread, executes the thread's own ring to it (the wait loop's stage 3), or,
// toward a peer's partition, reads the connection for waitPollRead unless
// another thread is reading it; it returns false if the operation is still
// pending after that. Polling a completion publishes every open burst of the
// thread first, so a packed operation can always be awaited.
//
// Ready panics with ErrUnregistered when the issuing thread has been
// unregistered while the completion was pending: the completion's serving
// duties belong to a locality the thread no longer belongs to, and the
// ring slot it polls may already have been recycled to a new thread.
// Completions that finished before Unregister stay readable. After
// Shutdown a still-pending completion resolves (done) with ErrClosed.
func (c *Completion) Ready() (Result, bool) {
	if c.done {
		return c.res, true
	}
	t := c.t
	if t.unregistered {
		panic(ErrUnregistered)
	}
	t.flushOpen()
	if c.pending() {
		t.serve()
		t.selfServe(c.p, c.slot)
		c.tok.Read(waitPollRead)
	}
	switch {
	case !c.pending():
		c.finish()
	case t.rt.down.Load():
		// The shutdown sweep abandoned this request; unwind with a
		// closed-runtime result rather than spinning forever.
		c.abandon(ErrClosed)
	default:
		return Result{}, false
	}
	return c.res, true
}

// Result blocks until the operation has executed and returns its result,
// serving the calling thread's locality while it waits. The wait is a call of
// its own under Config.OpTimeout (and Peer.Timeout on a peer's partition):
// past it the completion is abandoned and done with ErrTimeout — the
// operation may still execute later, its result is discarded, and its burst
// entry is reclaimed by the issuing thread once the server releases the
// slot. If the runtime is shut down while the operation is pending, the
// Result's Err is ErrClosed.
func (c *Completion) Result() Result {
	var call time.Time
	return c.await(&call)
}

// await blocks in the one wait loop until the completion is done or the
// calling operation's deadline (call, see newWaiter) passes, and then
// consumes the result or gives the operation up. A completion already done
// returns at once, and one resolved by the time the open bursts are published
// never reads the clock.
func (c *Completion) await(call *time.Time) Result {
	if c.done {
		return c.res
	}
	t := c.t
	if t.unregistered {
		panic(ErrUnregistered)
	}
	t.flushOpen()
	if c.pending() {
		w := newWaiter(t, c.p, c.target, call)
		if err := w.await(); err != nil {
			c.abandon(err)
			return c.res
		}
	}
	c.finish()
	return c.res
}

// finish consumes the executed operation's result: it copies the result out
// of the burst entry, clearing the entry's references (so it doesn't pin
// the result for GC until reuse) and consuming the entry (the slot becomes
// claimable once its last live entry is consumed) — or out of the wire
// token's burst, marking the token finished — records the send→completion
// latency, and re-raises any panic captured from the operation.
func (c *Completion) finish() {
	var pv any
	if c.slot != nil {
		m := c.slot.Payload()
		e := &m.ops[c.idx]
		c.res, pv = e.res, e.panicVal
		e.res, e.panicVal = Result{}, nil
		m.live--
	} else {
		c.res, _ = c.tok.Ready()
		c.tok.Finish()
	}
	c.target, c.done = target{}, true
	rt := c.t.rt
	d := rt.rec.Since(c.sent)
	rt.rec.Observe(c.t.id, obs.HistSyncDelegation, d)
	if rt.tracing {
		rt.tracer.OnComplete(c.t.id, c.p.id, c.key, d)
	}
	if pv != nil {
		panic(pv)
	}
}

// abandon gives up on a pending completion, which resolves to err: ErrTimeout
// past a deadline, ErrClosed after shutdown. The in-flight request cannot be
// recalled — the server side may execute it at any moment. On a ring its
// entry cannot be reclaimed until the server releases the slot, so it is
// marked dead in the slot's header for reap to consume later (the server
// reads only n there); a wire token is marked finished, and the response
// frame finds nobody waiting.
func (c *Completion) abandon(err error) {
	t := c.t
	if c.slot != nil {
		c.slot.Payload().dead |= 1 << c.idx
		t.dead++
	} else {
		c.tok.Finish()
	}
	t.rt.rec.Add(t.id, c.p.id, obs.Abandoned, 1)
	c.target = target{}
	c.res, c.done = Result{Err: err}, true
}

// reap consumes the dead entries of s, a released slot of the thread's ring
// to p: each stale result is discarded, a captured panic goes to
// Config.OnPanic (no completion will ever re-raise it), and the slot moves one
// step closer to claimable (live reaches zero once every entry is consumed).
// Each entry is consumed before its panic is delivered, so an OnPanic that
// panics leaves the slot consistent.
func (t *Thread) reap(p *Partition, s *slot) {
	m := s.Payload()
	for m.dead != 0 {
		idx := bits.TrailingZeros8(m.dead)
		m.dead &^= 1 << idx
		e := &m.ops[idx]
		pv := e.panicVal
		e.res, e.panicVal = Result{}, nil
		m.live--
		t.dead--
		if pv != nil {
			t.rt.deliverPanic(PanicInfo{Value: pv, ThreadID: t.id, Partition: p.id, Key: e.key, Async: false})
		}
	}
}
