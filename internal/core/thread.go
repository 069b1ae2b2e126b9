package core

import (
	"errors"
	"time"

	"dps/internal/affinity"
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
// After Unregister the Thread is dead: every Execute variant, Serve and
// Drain panics with ErrUnregistered (an unregistered thread no longer
// belongs to a locality, so silently accepting the call would corrupt the
// peer-serving protocol). Unregister itself stays idempotent.
type Thread struct {
	rt       *Runtime
	id       int
	locality int

	// open is the thread's open burst: a claimed, not-yet-published slot
	// (always the most recently claimed slot of openPart's ring, so the
	// server side never observes a gap) that consecutive same-partition
	// operations pack into. flushOpen publishes it; every blocking entry
	// point flushes before waiting so packed operations cannot be held
	// back by an idle sender.
	//
	//dps:owned-by=sender
	open *slot
	//dps:owned-by=sender
	openPart *Partition

	// outstanding tracks slots carrying fire-and-forget async messages so
	// Drain and Unregister can wait for them (one entry per slot, however
	// many async operations the burst packs).
	//
	//dps:owned-by=sender
	outstanding []*slot

	// abandoned holds entries of synchronous operations whose completion
	// timed out: the request is still in flight (or its unread result
	// still occupies the entry), so the slot cannot be reclaimed until the
	// server releases it and reapAbandoned consumes the entry.
	//
	//dps:owned-by=sender
	abandoned []abandonedRef

	// serveCursor rotates the starting ring of the full-scan pass so a
	// locality's threads tend to scan different senders first.
	//
	//dps:owned-by=sender
	serveCursor int

	// servePass counts serve passes; every serveFullScanEvery-th pass
	// ignores the doorbell and scans the whole ring table, so a doorbell
	// bit lost to a fault delays service instead of wedging it.
	//
	//dps:owned-by=sender
	servePass uint64

	// links[i] is this thread's sender link to peer i (Config.Peers
	// order), pinned to one pooled connection so the thread's wire
	// bursts stay ordered. Nil when no peers are configured.
	links []*wire.Link

	// wopen is the link holding the thread's open wire burst, nil when
	// none — the cross-process analogue of open/openPart, flushed at the
	// same flush points.
	//
	//dps:owned-by=sender
	wopen *wire.Link

	// woutstanding tracks wire tokens of fire-and-forget operations
	// delegated to peers, awaited by the Drain barrier.
	//
	//dps:owned-by=sender
	woutstanding []wireRef

	// parkTimer is the reusable timer backing this thread's park timeouts
	// (ring.Parker.Park lazily allocates it once, then resets it), so a
	// steady-state parked waiter allocates nothing.
	//
	//dps:owned-by=sender
	parkTimer *time.Timer

	// pinnedCPU is 1+the CPU this thread's OS thread is pinned to, 0 when
	// unpinned; prevMask is the affinity mask to restore on unpin. Both are
	// meaningful only on the pinned OS thread itself.
	//
	//dps:pinned-thread
	pinnedCPU int
	//dps:pinned-thread
	prevMask affinity.Mask

	smr *parsec.Thread

	// chaos caches rt.chaos (immutable after New) so the serve scan and
	// execute paths test one pointer off the hot Thread struct instead of
	// chasing rt. Nil for the shutdown sweep's admin thread: the sweep
	// drains without injecting further faults.
	//
	//dps:hook
	chaos *chaos.Injector

	unregistered bool
}

// abandonedRef names one timed-out synchronous entry: the slot it rode in
// and its index within the burst.
type abandonedRef struct {
	s   *slot
	idx int
}

// serveFullScanEvery is the doorbell fallback cadence: one serve pass in
// this many scans every registered ring regardless of doorbell state.
// Power of two so the pass test is a mask.
const serveFullScanEvery = 64

// Completion is the completion record returned by Execute (§3.1). Ready
// reports (and Result returns) the operation's outcome once the owning
// locality has executed it.
//
// Completion is used both by pointer (Execute's heap records, ExecuteInto's
// caller-owned ones) and by value: the synchronous paths (ExecuteSync,
// ExecutePartition, ExecuteAll) build stack completions and await them in
// place, so a remote synchronous delegation performs no heap allocation.
type Completion struct {
	// slot is the in-ring message, nil if the operation completed inline
	// (local execution), in which case res already holds the result.
	slot *slot
	t    *Thread
	// idx is the operation's entry index within the slot's burst.
	idx  int
	res  Result
	done bool
	// sent is the send-side clock stamp for the send→completion latency
	// histogram (zero for inline completions or with timing disabled).
	sent obs.Stamp

	// wtok/wp carry a cross-process completion: when wtok is non-zero the
	// operation rode the wire tier to peer-owned partition wp and slot is
	// nil. The polling and blocking paths dispatch on it.
	wtok wire.Tok
	wp   *Partition
}

// ID returns the thread's runtime-unique id.
func (t *Thread) ID() int { return t.id }

// Locality returns the partition/locality index the thread is bound to.
func (t *Thread) Locality() int { return t.locality }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// Unregister waits for the thread's outstanding asynchronous operations to
// complete — and for any timed-out synchronous operations to be reclaimed,
// so the thread id's rings return to the runtime clean — then removes the
// thread from the runtime. After Shutdown the waits are skipped (the
// shutdown sweep already drained or abandoned everything). The Thread must
// not be used afterwards.
//
//dps:domain=sender
func (t *Thread) Unregister() {
	if t.unregistered {
		return
	}
	if !t.rt.down.Load() {
		t.Drain()
	}
	t.unregistered = true
	t.rt.unregister(t)
}

// partitionFor maps a key to its owning partition.
//
//dps:noalloc via ExecuteSync
func (t *Thread) partitionFor(key uint64) *Partition {
	return t.rt.parts[t.rt.ns.Lookup(t.rt.cfg.Hash(key))]
}

// checkLive panics with ErrUnregistered on use-after-Unregister and with
// ErrClosed on use after Shutdown, the documented misuse paths.
//
//dps:noalloc via ExecuteSync
func (t *Thread) checkLive() {
	if t.unregistered {
		panic(ErrUnregistered)
	}
	if t.rt.down.Load() {
		panic(ErrClosed)
	}
}

// execInline runs op locally with metric attribution to partition p: one
// LocalExec count plus a local-exec latency observation. The clock is
// consulted once, through the obs layer, so disabling timing removes the
// reads entirely.
//
//dps:noalloc via ExecuteSync
func (t *Thread) execInline(p *Partition, key uint64, op Op, args *Args) Result {
	t.rt.rec.Add(t.id, p.id, obs.LocalExec, 1)
	start := t.rt.rec.Start()
	res := t.runLocal(p, key, op, args)
	t.rt.rec.Observe(t.id, obs.HistLocalExec, t.rt.rec.Since(start))
	// An arena payload can reach the inline path when the destination's
	// workers dropped to zero between AcquirePayload and the execute call;
	// without the serve path to release it, the buffer is returned here.
	releasePayload(args)
	return res
}

// runLocal executes op inline on the calling thread, inside a quiescence
// read-side section so the op may safely traverse nodes being retired by
// other threads' ops.
//
//dps:noalloc via ExecuteSync
func (t *Thread) runLocal(p *Partition, key uint64, op Op, args *Args) Result {
	t.smr.Enter()
	defer t.smr.Exit()
	return op(p, key, args)
}

// Execute performs op on the data associated with key (§3.1's
// completion_rec_t execute(dps, key, op, args...)). If key belongs to the
// calling thread's locality the operation runs immediately as a function
// call and the returned completion is already done. Otherwise the request is
// delegated to the owning locality and the completion becomes ready once a
// peer thread there executes it; the caller should poll it with Ready (or
// block with Result), both of which serve requests delegated to this
// thread's locality in the meantime.
//
// Consecutive Executes to the same partition pack into one burst slot; the
// burst is published at the latest when any completion is polled, another
// partition is targeted, or the burst fills.
//
// Execute heap-allocates the completion record; ExecuteInto is the same
// call with the record in caller storage.
//
//dps:domain=sender
func (t *Thread) Execute(key uint64, op Op, args Args) *Completion {
	c := new(Completion)
	t.ExecuteInto(c, key, op, args)
	return c
}

// ExecuteInto is the allocation-free Execute: the completion record is
// written into c, storage the caller owns (a stack value, an array it
// reuses), so a thread can keep several delegations in flight — issue a
// wave of operations, then await them in any order — without touching the
// heap. c is overwritten; it must not be a completion that is still
// pending.
//
// A completion holds its burst slot until its result is consumed (Ready
// returning true, Result, ResultTimeout), so a thread may hold at most
// Runtime.RingDepth unconsumed completions: one more send toward a
// partition whose ring is filled with the thread's own unconsumed results
// would wait in the ring-full path for a slot only the thread itself can
// free. That ring-full wait is bounded by the stall-rescue machinery, not by
// a later ResultTimeout.
//
//dps:noalloc
//dps:domain=sender
func (t *Thread) ExecuteInto(c *Completion, key uint64, op Op, args Args) {
	t.checkLive()
	p := t.partitionFor(key)
	*c = Completion{t: t}
	if p.peer != nil {
		sent := t.rt.rec.Start()
		a := args
		tok, err := t.stageRemote(p, key, op, &a, false)
		if err != nil {
			c.res, c.done = Result{Err: err}, true
			return
		}
		c.wtok, c.wp, c.sent = tok, p, sent
		return
	}
	if p.id == t.locality || p.workers.Load() == 0 {
		// Local key — or a locality with no threads to serve it, where
		// inline execution (a remote-memory access in the paper's
		// terms) is the only way to make progress. The copy confines
		// args' escape to this branch.
		a := args
		c.res, c.done = t.execInline(p, key, op, &a), true
		return
	}
	sent := t.rt.rec.Start()
	s, idx := t.pack(p, key, op, args, false, time.Time{})
	if s == nil {
		releasePayload(&args)
		c.res, c.done = Result{Err: ErrClosed}, true
		return
	}
	t.rt.rec.Add(t.id, p.id, obs.RemoteSend, 1)
	c.slot, c.idx, c.sent = s, idx, sent
}

// ExecuteSync is Execute followed by completion (§3.1 notes the synchronous
// API "directly following execute with a loop on await_completion"). The
// completion record lives on the caller's stack, so a remote synchronous
// delegation allocates nothing. A synchronous operation joins the open
// burst when one targets the same partition — one slot claim covers the
// whole run — and the burst is published before the await.
//
//dps:noalloc
//dps:domain=sender
func (t *Thread) ExecuteSync(key uint64, op Op, args Args) Result {
	t.checkLive()
	p := t.partitionFor(key)
	if p.peer != nil {
		a := args
		res, _ := t.remoteSync(p, key, op, &a, time.Time{})
		return res
	}
	if p.id == t.locality || p.workers.Load() == 0 {
		a := args
		return t.execInline(p, key, op, &a)
	}
	sent := t.rt.rec.Start()
	s, idx := t.pack(p, key, op, args, false, time.Time{})
	if s == nil {
		// The operation was never staged (shutdown raced the send); an
		// arena payload it carried must go back to its pool here — no
		// serve path will ever consume it.
		releasePayload(&args)
		return Result{Err: ErrClosed}
	}
	t.flushOpen()
	t.rt.rec.Add(t.id, p.id, obs.RemoteSend, 1)
	c := Completion{slot: s, idx: idx, t: t, sent: sent}
	return c.Result()
}

// ExecuteSyncTimeout is ExecuteSync with a deadline: it blocks at most
// timeout for the request to be enqueued (the ring-full wait) and the
// completion to arrive, serving the caller's locality meanwhile, and
// returns ErrTimeout when the deadline expires first. A timed-out
// operation may still execute later — the runtime then discards its result
// and routes any panic it raises through the panic policy — but it holds
// its burst entry until the owning locality releases the slot, so a
// locality that stays wedged past every timeout eventually exerts
// ring-full back-pressure on new sends. Local keys execute inline as plain
// function calls and are not subject to the deadline. ErrClosed is
// returned if the runtime shuts down during the wait.
//
//dps:domain=sender
func (t *Thread) ExecuteSyncTimeout(key uint64, op Op, args Args, timeout time.Duration) (Result, error) {
	t.checkLive()
	p := t.partitionFor(key)
	if p.peer != nil {
		a := args
		return t.remoteSync(p, key, op, &a, time.Now().Add(timeout))
	}
	if p.id == t.locality || p.workers.Load() == 0 {
		a := args
		return t.execInline(p, key, op, &a), nil
	}
	deadline := time.Now().Add(timeout)
	sent := t.rt.rec.Start()
	s, idx := t.pack(p, key, op, args, false, deadline)
	if s == nil {
		releasePayload(&args)
		if t.rt.down.Load() {
			return Result{Err: ErrClosed}, ErrClosed
		}
		return Result{}, ErrTimeout
	}
	t.flushOpen()
	t.rt.rec.Add(t.id, p.id, obs.RemoteSend, 1)
	c := Completion{slot: s, idx: idx, t: t, sent: sent}
	return c.resultDeadline(deadline)
}

// ExecuteAsync delegates op without a completion record (§4.4): it returns
// as soon as the request is packed into a burst slot of the destination
// ring. Consecutive asynchronous operations to the same partition share one
// slot claim; the burst is published when it fills, when a different
// partition (or a blocking call) intervenes, and at the latest by Drain.
// Results are discarded; ordering to the same partition is preserved (the
// ring is FIFO and bursts execute in pack order), so read-your-writes and
// monotonic-writes hold for subsequent operations from this thread. Use
// Drain as the barrier before depending on completion.
//
//dps:noalloc
//dps:domain=sender
func (t *Thread) ExecuteAsync(key uint64, op Op, args Args) {
	t.checkLive()
	p := t.partitionFor(key)
	if p.peer != nil {
		a := args
		t.remoteAsync(p, key, op, &a)
		return
	}
	if p.id == t.locality || p.workers.Load() == 0 {
		a := args
		t.execInline(p, key, op, &a)
		return
	}
	s, _ := t.pack(p, key, op, args, true, time.Time{})
	if s == nil {
		// Shutdown raced the send; the operation is dropped, and the drop
		// is visible in the Abandoned counter.
		releasePayload(&args)
		t.rt.rec.Add(t.id, p.id, obs.Abandoned, 1)
		return
	}
	t.rt.rec.Add(t.id, p.id, obs.AsyncSend, 1)
}

// ExecuteLocal runs op on the calling thread regardless of which locality
// owns key — the local-execution optimization (§4.4), intended for read-only
// operations on data-structures whose concurrent implementation already
// tolerates cross-locality readers. The operation still sees the owning
// partition's shard.
//
//dps:noalloc
//dps:domain=sender
func (t *Thread) ExecuteLocal(key uint64, op Op, args Args) Result {
	t.checkLive()
	p := t.partitionFor(key)
	if p.peer != nil {
		// The shard lives in another process; local execution is
		// impossible, so the operation delegates like ExecuteSync.
		res, _ := t.remoteSync(p, key, op, &args, time.Time{})
		return res
	}
	return t.execInline(p, key, op, &args)
}

// ExecutePartition performs op on an explicit partition instead of routing
// by key hash. It is used by operations that target a partition as a whole
// — e.g. the priority-queue dequeue that follows a broadcast findMin
// (§3.4) — and blocks until the result is available, serving the caller's
// locality meanwhile. The key is passed through to op uninterpreted.
//
//dps:domain=sender
func (t *Thread) ExecutePartition(part int, key uint64, op Op, args Args) Result {
	t.checkLive()
	p := t.rt.parts[part]
	if p.peer != nil {
		a := args
		res, _ := t.remoteSync(p, key, op, &a, time.Time{})
		return res
	}
	if p.id == t.locality || p.workers.Load() == 0 {
		a := args
		return t.execInline(p, key, op, &a)
	}
	sent := t.rt.rec.Start()
	s, idx := t.pack(p, key, op, args, false, time.Time{})
	if s == nil {
		releasePayload(&args)
		return Result{Err: ErrClosed}
	}
	t.flushOpen()
	t.rt.rec.Add(t.id, p.id, obs.RemoteSend, 1)
	c := Completion{slot: s, idx: idx, t: t, sent: sent}
	return c.Result()
}

// ExecuteAll broadcasts op to every partition — the range-operation API
// (§4.4) — and merges the per-partition results with agg, which receives
// them indexed by partition id. ExecuteAll is not linearizable with respect
// to concurrent single-key operations: each partition executes its share at
// an independent point in time.
//
//dps:domain=sender
func (t *Thread) ExecuteAll(op Op, args Args, agg func(results []Result) Result) Result {
	t.checkLive()
	n := len(t.rt.parts)
	completions := make([]Completion, n)
	// Delegate to remote partitions first so they proceed in parallel
	// with our local share. A nil slot marks "not delegated".
	for i, p := range t.rt.parts {
		if p.peer != nil {
			sent := t.rt.rec.Start()
			a := args
			tok, err := t.stageRemote(p, p.lo, op, &a, false)
			if err != nil {
				completions[i] = Completion{t: t, res: Result{Err: err}, done: true}
				continue
			}
			completions[i] = Completion{t: t, wtok: tok, wp: p, sent: sent}
			continue
		}
		if p.id == t.locality || p.workers.Load() == 0 {
			continue
		}
		sent := t.rt.rec.Start()
		s, idx := t.pack(p, p.lo, op, args, false, time.Time{})
		if s == nil {
			completions[i] = Completion{t: t, res: Result{Err: ErrClosed}, done: true}
			continue
		}
		t.flushOpen()
		t.rt.rec.Add(t.id, p.id, obs.RemoteSend, 1)
		completions[i] = Completion{slot: s, idx: idx, t: t, sent: sent}
	}
	// Publish any open wire burst so peer shares proceed while the local
	// share executes.
	t.flushWire()
	results := make([]Result, n)
	for i, p := range t.rt.parts {
		if completions[i].slot == nil && completions[i].wtok.Zero() && !completions[i].done {
			a := args
			results[i] = t.execInline(p, p.lo, op, &a)
		}
	}
	for i := range completions {
		switch {
		case completions[i].slot != nil || !completions[i].wtok.Zero():
			results[i] = completions[i].Result()
		case completions[i].done:
			results[i] = completions[i].res
		}
	}
	if agg == nil {
		return Result{}
	}
	return agg(results)
}

// Flush publishes the thread's open burst, if any, without blocking:
// packed operations become visible to the destination locality and its
// doorbell is rung. Execute and ExecuteAsync leave a burst open so
// consecutive same-partition operations share one slot; every blocking
// call (completion await, Drain, Serve) flushes implicitly, so Flush is
// only needed when a sender goes quiet without ever blocking — e.g. a
// producer that issues a few fire-and-forget operations and then leaves
// the runtime alone.
//
//dps:noalloc via ExecuteSync
//dps:domain=sender
func (t *Thread) Flush() {
	t.checkLive()
	t.flushOpen()
}

// Drain publishes any open burst, then blocks until every fire-and-forget
// asynchronous operation issued by this thread has been executed, serving
// delegated requests while it waits. It is the completion barrier §4.4
// requires between dependent asynchronous operations. Drain also reclaims
// the entries of timed-out synchronous operations once their servers
// release them, so after Drain returns the thread's rings are fully
// reusable (Unregister relies on this before recycling the thread id). If
// the runtime shuts down mid-drain, Drain stops waiting — the shutdown
// sweep owns the rings from then on.
//
//dps:noalloc
//dps:domain=sender
func (t *Thread) Drain() {
	t.checkLive()
	t.flushOpen()
	for _, s := range t.outstanding {
		t.awaitServed(s)
	}
	for i := range t.outstanding {
		t.outstanding[i] = nil
	}
	t.outstanding = t.outstanding[:0]
	for len(t.abandoned) > 0 {
		t.awaitServed(t.abandoned[0].s)
		if t.reapAbandoned() == 0 && t.rt.down.Load() {
			break
		}
	}
	if len(t.woutstanding) > 0 {
		t.drainWire()
	}
}

// awaitServed blocks until s has been executed (toggle cleared), serving
// the caller's locality meanwhile and escalating through the adaptive
// waiter when no progress is visible. Returns early on shutdown.
func (t *Thread) awaitServed(s *slot) {
	if s == nil || !s.Pending() {
		return
	}
	p := s.Payload().part
	w := newWaiter(t, p)
	for s.Pending() {
		if t.rt.down.Load() {
			return
		}
		if t.serve() > 0 {
			w.reset()
			continue
		}
		if p.workers.Load() == 0 {
			t.rescue(s)
		}
		w.pause(s)
	}
}

// compactOutstanding drops slots whose bursts have already been served.
// The open slot is kept even though it is not yet pending: its async
// entries still owe the Drain barrier a wait once it is published.
func (t *Thread) compactOutstanding() {
	kept := t.outstanding[:0]
	for _, s := range t.outstanding {
		if s.Pending() || s == t.open {
			kept = append(kept, s)
		}
	}
	for i := len(kept); i < len(t.outstanding); i++ {
		t.outstanding[i] = nil
	}
	t.outstanding = kept
}

// pack stages one operation toward partition p: it joins the open burst
// when one targets p and has room, otherwise it publishes the open burst
// (if any) and claims a fresh slot, waiting out ring-full back-pressure.
// The returned slot is not yet published — the caller either leaves the
// burst open for successors (Execute, ExecuteAsync) or calls flushOpen
// before awaiting. A full burst is published immediately. Returns a nil
// slot only if the runtime shut down (or the deadline expired) while the
// ring was full — the operation was never staged.
//
// Invariant: the open slot is always the most recently claimed slot of its
// ring, so the server side never observes a published slot behind an
// unpublished one (Drain would stop at the gap and strand it).
//
//dps:noalloc via ExecuteSync
func (t *Thread) pack(p *Partition, key uint64, op Op, args Args, fire bool, deadline time.Time) (*slot, int) {
	if t.open != nil {
		m := t.open.Payload()
		if t.openPart == p && int(m.n) < burstSize &&
			(t.chaos == nil || !t.chaos.SplitBurst()) {
			s := t.open
			idx := int(m.n)
			t.fillEntry(m, idx, key, op, args, fire)
			m.n++
			if fire && !m.tracked {
				m.tracked = true
				t.noteOutstanding(s)
			}
			if t.rt.tracing {
				t.rt.tracer.OnSend(t.id, p.id, key, !fire)
			}
			if int(m.n) == burstSize {
				t.flushOpen()
			}
			return s, idx
		}
		t.flushOpen()
	}
	s := t.claimSlot(p, deadline)
	if s == nil {
		return nil, 0
	}
	m := s.Payload()
	m.part = p
	m.n = 1
	m.tracked = false
	t.fillEntry(m, 0, key, op, args, fire)
	// The open pointer must be set before the outstanding note: noting can
	// trigger compaction, and compaction keeps an unpublished slot only by
	// recognizing it as the open burst. Noting first would let compaction
	// silently drop the slot from the Drain barrier.
	t.open, t.openPart = s, p
	if fire {
		m.tracked = true
		t.noteOutstanding(s)
	}
	if t.rt.tracing {
		t.rt.tracer.OnSend(t.id, p.id, key, !fire)
	}
	if burstSize == 1 {
		t.flushOpen()
	}
	return s, 0
}

// fillEntry writes one operation into entry idx of a sender-owned burst.
//
//dps:noalloc via ExecuteSync
func (t *Thread) fillEntry(m *msg, idx int, key uint64, op Op, args Args, fire bool) {
	e := &m.ops[idx]
	e.op = op
	e.key = key
	e.args = args
	e.res = Result{}
	e.panicVal = nil
	e.fire = fire
	if !fire {
		m.live++
	}
}

// noteOutstanding registers a slot carrying fire-and-forget entries with
// the Drain barrier, compacting the list when it grows.
//
//dps:noalloc via ExecuteSync
func (t *Thread) noteOutstanding(s *slot) {
	//dps:alloc-ok amortized growth of the outstanding list is the documented 1-alloc baseline
	t.outstanding = append(t.outstanding, s)
	if len(t.outstanding) >= cap(t.outstanding) && len(t.outstanding) >= 32 {
		t.compactOutstanding()
	}
}

// flushOpen publishes the thread's open burst, transferring the slot to
// the server side (all entry writes happen-before) and ringing the
// destination locality's doorbell so serving threads find the ring without
// a full scan. No-op without an open burst.
//
//dps:noalloc via ExecuteSync
//dps:publish
func (t *Thread) flushOpen() {
	if t.wopen != nil {
		// The open wire burst flushes at the same points the open ring
		// burst does; cross-tier operations cannot be held back either.
		t.flushWire()
	}
	s := t.open
	if s == nil {
		return
	}
	p := t.openPart
	n := int(s.Payload().n)
	t.open, t.openPart = nil, nil
	s.Publish()
	if t.chaos == nil || !t.chaos.DropDoorbell() {
		p.bell.Set(t.id)
		// Wake one parked waiter of the destination locality so the burst
		// is served without waiting out a park timeout. Picking claims the
		// waiter's parked bit, so concurrent senders wake distinct waiters.
		// A dropped doorbell (chaos) drops the wake too: recovery is the
		// woken-by-timeout full scan, exactly the fault being injected.
		if p.parked != nil {
			if idx, ok := p.parked.Pick(); ok && t.rt.parker.Wake(idx) {
				t.rt.rec.Add(t.id, p.id, obs.Wakes, 1)
			}
		}
	}
	t.rt.rec.ObserveBurst(t.id, n)
}

// claimSlot acquires the next free slot of this thread's ring to partition
// p, serving its own locality while the ring is full (§4.4: "the thread
// waits for an available request slot, while performing operations
// delegated to it"). The caller must have no open burst. A slot is free
// once the server side has finished with it (toggle clear) and every
// synchronous result it carried has been consumed (live == 0). Returns nil
// only if the runtime shuts down — or the optional deadline (zero means
// none) expires — while the ring is full.
//
//dps:noalloc via ExecuteSync
func (t *Thread) claimSlot(p *Partition, deadline time.Time) *slot {
	rt := t.rt
	r := p.rings[t.id].Load()
	var w waiter
	for {
		s := r.SendSlot()
		m := s.Payload()
		// The chaos hook simulates a full ring to exercise the
		// back-pressure path.
		if !s.Pending() && m.free() && (t.chaos == nil || !t.chaos.RingFull()) {
			r.AdvanceSend()
			return s
		}
		if w.t == nil {
			w = newWaiter(t, p)
		}
		// Ring full (next slot still owned by the server side, or a
		// result unconsumed): serve our own locality instead of spinning.
		rt.rec.Add(t.id, p.id, obs.RingFull, 1)
		if rt.tracing {
			rt.tracer.OnRingFull(t.id, p.id)
		}
		// A released slot with unconsumed entries belongs to timed-out
		// completions; reclaiming them may free the ring immediately.
		if t.reapAbandoned() > 0 {
			continue
		}
		if rt.down.Load() {
			return nil
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil
		}
		if t.serve() > 0 {
			w.reset()
			continue
		}
		if p.workers.Load() == 0 {
			t.rescue(r.SendSlot())
		}
		w.pause(s)
	}
}

// serve executes requests pending on this thread's locality and returns
// how many operations it executed. Most passes are doorbell-driven — visit
// only the sender rings whose bits are set, so the pass costs O(active
// senders) — with every serveFullScanEvery-th pass falling back to a full
// ring-table scan so the stall/rescue machinery (and any ring whose
// doorbell bit was lost to a fault) is still found without a doorbell.
//
//dps:noalloc via ExecuteSync
func (t *Thread) serve() int {
	p := t.rt.parts[t.locality]
	t.servePass++
	if t.servePass&(serveFullScanEvery-1) == 0 {
		return t.serveScan(p)
	}
	return t.serveBell(p)
}

// serveBell is the doorbell-driven serve pass: snapshot-and-clear each
// bitmap word, visit only the rings whose bits were set, and re-arm the
// bit for any ring left with work behind (claim held elsewhere, batch
// bound hit) so the next pass returns to it.
//
//dps:noalloc via ExecuteSync
func (t *Thread) serveBell(p *Partition) int {
	served, visited := 0, 0
	words := p.bell.Words()
	for w := 0; w < words; w++ {
		pending := p.bell.Collect(w)
		for pending != 0 {
			idx := ring.PopBit(w, &pending)
			r := p.rings[idx].Load()
			if r == nil {
				// A bit with no ring: rung by a thread id whose rings were
				// never created. Cannot happen today (rings outlive
				// registration); drop defensively.
				continue
			}
			visited++
			n, more := t.serveRing(p, r)
			served += n
			if more {
				p.bell.Set(idx)
			}
			t.wakeSender(p, idx, n)
		}
	}
	t.rt.rec.Add(t.id, p.id, obs.RingScansSkipped, uint64(len(p.rings)-visited))
	if visited > 0 {
		t.rt.rec.Add(t.id, p.id, obs.DoorbellWakes, uint64(visited))
	}
	if served > 0 {
		t.rt.rec.Add(t.id, p.id, obs.Served, uint64(served))
	}
	return served
}

// serveScan is the full-scan serve pass: visit every registered ring of
// the locality in rotated order. It is the pre-doorbell behaviour, kept as
// the periodic fallback that guarantees a ring is served even when its
// doorbell bit was lost (chaos.DropDoorbell, or a server that died between
// Collect and drain).
//
//dps:noalloc via ExecuteSync
func (t *Thread) serveScan(p *Partition) int {
	n := len(p.rings)
	served := 0
	t.serveCursor++
	start := t.serveCursor
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		r := p.rings[idx].Load()
		if r == nil {
			continue
		}
		srv, _ := t.serveRing(p, r)
		served += srv
		t.wakeSender(p, idx, srv)
	}
	if served > 0 {
		t.rt.rec.Add(t.id, p.id, obs.Served, uint64(served))
	}
	return served
}

// serveRing drains up to Config.ServeBatch pending operations from one
// ring in FIFO order under the ring's claim token, and reports whether the
// ring was left with visible work (so a doorbell-driven caller re-arms its
// bit). Bounding the batch keeps one claim from monopolizing a busy ring:
// the server returns to polling its own completions (and other senders'
// rings) every batch of operations, mirroring ffwd's response batching.
//
//dps:noalloc via ExecuteSync
func (t *Thread) serveRing(p *Partition, r *dring) (int, bool) {
	if t.chaos != nil {
		t.chaos.BeforeServe()
	}
	if !r.TryClaim() {
		return 0, true
	}
	defer r.Unclaim()
	//dps:alloc-ok the drain callback does not escape Drain; the remote 0-alloc pin proves it stays on the stack
	n := r.Drain(t.rt.cfg.ServeBatch, func(s *slot) int {
		return t.executeMessage(p, s)
	})
	return n, r.Head().Pending()
}

// wakeSender wakes sender thread idx after its ring to p was drained of n
// operations: the sender may be parked awaiting exactly those completions
// (or awaiting a free slot of the now-drained ring). Ring index and parker
// slot index are both the sender's thread id, so no lookup is needed; Wake
// on an unparked sender is one relaxed load.
//
//dps:noalloc via ExecuteSync
func (t *Thread) wakeSender(p *Partition, idx, n int) {
	if n > 0 && t.rt.parker.Wake(idx) {
		t.rt.rec.Add(t.id, p.id, obs.Wakes, 1)
	}
}

// forceFullScan makes the thread's next serve pass a full ring-table scan
// regardless of doorbell state. Park timeouts call it: a park that times
// out with no wake suggests a lost doorbell bit, and the forced scan
// rediscovers the orphaned ring within one park timeout instead of the
// serveFullScanEvery cadence.
//
//dps:noalloc via ExecuteSync
func (t *Thread) forceFullScan() {
	t.servePass |= serveFullScanEvery - 1
}

// rescue handles the abandoned-locality case: if every thread of s's
// destination locality has unregistered while s is still pending, nobody
// will ever serve it. The sender then executes its own ring to that
// partition inline (a remote-memory access in the paper's terms, but the
// only way to preserve liveness). The blocking claim is safe: serve claims
// are only held for the duration of a bounded drain batch.
func (t *Thread) rescue(s *slot) {
	p := s.Payload().part
	if p == nil || p.workers.Load() != 0 || !s.Pending() {
		return
	}
	r := p.rings[t.id].Load()
	r.Claim()
	defer r.Unclaim()
	t.rescueDrain(p, r, s)
}

// forceRescue is the stall-escalation variant of rescue: the destination
// locality still has registered workers, but none of them has served
// anything across a full stall-detection window (blocked outside DPS,
// descheduled, or wedged by an injected fault). Unlike rescue it must not
// block on the claim — the claim may be held by the very thread that is
// wedged — so it uses TryClaim and simply returns when the ring is
// claimed; the waiter will escalate again next window.
func (t *Thread) forceRescue(p *Partition, s *slot) {
	if !s.Pending() {
		return
	}
	r := p.rings[t.id].Load()
	if r == nil || !r.TryClaim() {
		return
	}
	defer r.Unclaim()
	t.rescueDrain(p, r, s)
}

// rescueDrain executes the pending prefix of r — the caller's own ring to
// p, claimed by the caller — until s has been served or a gap shows a
// reviving server took over.
func (t *Thread) rescueDrain(p *Partition, r *dring, s *slot) {
	//dps:spin-ok every iteration serves one burst or returns at a gap, so progress is guaranteed
	for s.Pending() {
		h := r.Head()
		if !h.Pending() {
			// Our message is pending but the cursor found a gap: a
			// reviving server must have taken over; let it finish.
			return
		}
		n := t.executeMessage(p, h)
		t.rt.rec.Add(t.id, p.id, obs.Rescued, uint64(n))
		r.AdvanceHead()
	}
}

// executeMessage runs a delegated burst — every operation the slot packs,
// in pack order — publishes the results and releases the slot once, and
// returns the number of operations executed. Each operation's execution
// time lands in the served histogram (covering the rescue path too) and
// fires Tracer.OnServe. Panics inside an operation are captured per entry,
// never raised on the serving thread — and never abort the rest of the
// burst: a live synchronous awaiter re-raises its entry's panic on its own
// thread via Completion.finish; a fire-and-forget panic (which no
// completion will ever observe) routes through the configured panic
// policy; a timed-out synchronous request's panic routes through the
// policy when its sender reaps the entry.
//
//dps:noalloc via ExecuteSync
//dps:publish
func (t *Thread) executeMessage(p *Partition, s *slot) int {
	m := s.Payload()
	n := int(m.n)
	// Fire-and-forget panics are copied out and routed only AFTER the
	// release below: deliverPanic may itself panic (PanicCrash), and the
	// slot must return to its sender either way or the sender's drain
	// barrier wedges on a permanently-pending slot.
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
		releasePayload(&e.args)
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

// Serve publishes any open burst, then processes requests pending on the
// calling thread's locality and returns how many operations were executed.
// It implements the liveness interface from §4.4: an application can
// devote a thread (or a periodic callback) to Serve so delegations
// complete even when all other locality threads are blocked outside DPS.
//
//dps:domain=sender
func (t *Thread) Serve() int {
	t.checkLive()
	t.flushOpen()
	return t.serve()
}

// ServeWait is Serve for dedicated serving loops: it publishes any open
// burst and serves pending requests, and when a pass finds nothing it
// parks the calling thread until a sender rings the locality's doorbell
// (flushOpen wakes a parked waiter directly) or d elapses, then serves
// whatever arrived. The return value counts operations executed across
// both passes. Unlike a Serve/sleep loop, an idle ServeWait loop costs no
// CPU between requests and wakes in microseconds when one lands; d only
// bounds how long a wake lost to a fault can delay service. Like every
// Thread method it panics with ErrClosed after Shutdown.
//
//dps:bounded-wait
//dps:domain=sender
func (t *Thread) ServeWait(d time.Duration) int {
	t.checkLive()
	t.flushOpen()
	n := t.serve()
	if n > 0 {
		return n
	}
	rt := t.rt
	myloc := rt.parts[t.locality]
	rt.parker.Prepare(t.id)
	if myloc.parked != nil {
		myloc.parked.Set(t.id)
	}
	if rt.down.Load() || myloc.bell.Any() {
		rt.parker.Cancel(t.id)
	} else {
		rt.rec.Add(t.id, t.locality, obs.Parks, 1)
		if !rt.parker.Park(t.id, &t.parkTimer, d) {
			t.forceFullScan()
		}
	}
	if myloc.parked != nil {
		myloc.parked.Clear(t.id)
	}
	return n + t.serve()
}

// Ready polls the completion (§3.1's await_completion): it returns the
// result and true if the operation has executed. While the operation is
// still pending, Ready serves CheckRatio passes' worth of requests delegated
// to the calling thread's locality — the overlap that lets all cores make
// progress on data-structure work (§4.3) — and returns false. Polling a
// completion publishes the thread's open burst first, so a packed
// operation can always be awaited.
//
// Ready panics with ErrUnregistered when the issuing thread has been
// unregistered while the completion was pending: the completion's serving
// duties belong to a locality the thread no longer belongs to, and the
// ring slot it polls may already have been recycled to a new thread.
// Completions that finished before Unregister stay readable. After
// Shutdown a still-pending completion resolves (done) with ErrClosed.
//
//dps:noalloc via ExecuteSync
//dps:domain=sender
func (c *Completion) Ready() (Result, bool) {
	if c.done {
		return c.res, true
	}
	if c.t.unregistered {
		panic(ErrUnregistered)
	}
	c.t.flushOpen()
	if !c.wtok.Zero() {
		return c.readyWire()
	}
	for i := 0; i < c.t.rt.cfg.CheckRatio; i++ {
		if !c.slot.Pending() {
			c.finish()
			return c.res, true
		}
		c.t.serve()
	}
	c.t.rescue(c.slot)
	if !c.slot.Pending() {
		c.finish()
		return c.res, true
	}
	if c.t.rt.down.Load() {
		// The shutdown sweep abandoned this request; unwind with a
		// closed-runtime result rather than spinning forever.
		c.slot = nil
		c.res = Result{Err: ErrClosed}
		c.done = true
		return c.res, true
	}
	return Result{}, false
}

// Result blocks until the operation has executed and returns its result,
// serving the calling thread's locality while it waits. If the runtime is
// shut down while the operation is pending, Result returns a Result whose
// Err is ErrClosed.
//
//dps:noalloc
//dps:domain=sender
func (c *Completion) Result() Result {
	// Deadline-free twin of resultDeadline: the unbounded await is the
	// hot path (every ExecuteSync), so it skips the per-iteration
	// deadline checks entirely.
	if res, ok := c.Ready(); ok {
		return res
	}
	if !c.wtok.Zero() {
		res, _ := c.resultWire(time.Time{})
		return res
	}
	w := newWaiter(c.t, c.slot.Payload().part)
	for {
		w.pause(c.slot)
		if res, ok := c.Ready(); ok {
			return res
		}
	}
}

// ResultTimeout is Result with a deadline. The error is nil when the
// operation completed, ErrTimeout when the deadline expired first, or
// ErrClosed when the runtime shut down during the wait. On ErrTimeout the
// completion is abandoned: it is done (errors.Is(Err, ErrTimeout)), the operation
// may still execute later, its result is discarded, and its burst entry is
// reclaimed by the issuing thread once the server releases the slot.
//
//dps:noalloc
//dps:domain=sender
func (c *Completion) ResultTimeout(timeout time.Duration) (Result, error) {
	// A completion that is already ready — every later member of a wave
	// whose first await did the waiting — never reads the clock.
	if res, ok := c.Ready(); ok {
		return res, closedErr(res)
	}
	return c.awaitDeadline(time.Now().Add(timeout))
}

// resultDeadline awaits the completion until deadline (zero: forever),
// serving the caller's locality and escalating through the adaptive waiter
// while it waits.
func (c *Completion) resultDeadline(deadline time.Time) (Result, error) {
	if res, ok := c.Ready(); ok {
		return res, closedErr(res)
	}
	return c.awaitDeadline(deadline)
}

// awaitDeadline is resultDeadline past the first poll: the completion was
// not ready, so block (parking, serving) until it is or deadline passes.
//
//dps:noalloc via ResultTimeout
func (c *Completion) awaitDeadline(deadline time.Time) (Result, error) {
	if !c.wtok.Zero() {
		return c.resultWire(deadline)
	}
	w := newWaiter(c.t, c.slot.Payload().part)
	for {
		if !deadline.IsZero() && time.Now().After(deadline) {
			c.abandon()
			return c.res, ErrTimeout
		}
		w.pause(c.slot)
		if res, ok := c.Ready(); ok {
			return res, closedErr(res)
		}
	}
}

// readyWire polls a cross-process completion, serving the caller's
// locality between polls — Ready's contract, dispatched on the wire
// token. The in-process rescue has no wire analogue; liveness there is
// the deadline machinery's job (resultWire, remoteSync).
func (c *Completion) readyWire() (Result, bool) {
	for i := 0; i < c.t.rt.cfg.CheckRatio; i++ {
		if res, ok := c.wtok.Ready(); ok {
			c.finishWire(res)
			return c.res, true
		}
		c.t.serve()
	}
	if c.t.rt.down.Load() {
		c.wtok.Finish()
		c.wtok = wire.Tok{}
		c.res = Result{Err: ErrClosed}
		c.done = true
		return c.res, true
	}
	return Result{}, false
}

// resultWire awaits a cross-process completion (Result/resultDeadline's
// wire arm). A zero deadline applies the peer's timeout: wire awaits are
// never unbounded.
func (c *Completion) resultWire(deadline time.Time) (Result, error) {
	res, err := c.t.awaitTok(c.wtok, deadline, c.wp)
	c.wtok = wire.Tok{}
	c.res = res
	c.done = true
	rt := c.t.rt
	d := rt.rec.Since(c.sent)
	rt.rec.Observe(c.t.id, obs.HistSyncDelegation, d)
	if rt.tracing {
		rt.tracer.OnComplete(c.t.id, c.wp.id, 0, d)
	}
	return res, err
}

// finishWire resolves a cross-process completion from a polled result.
func (c *Completion) finishWire(res Result) {
	c.wtok.Finish()
	c.wtok = wire.Tok{}
	c.res = res
	c.done = true
	rt := c.t.rt
	d := rt.rec.Since(c.sent)
	rt.rec.Observe(c.t.id, obs.HistSyncDelegation, d)
	if rt.tracing {
		rt.tracer.OnComplete(c.t.id, c.wp.id, 0, d)
	}
}

// closedErr maps a transport-synthesized result (shutdown or a dead
// peer link) to its error return; op-level errors stay in the Result.
func closedErr(res Result) error {
	switch {
	case errors.Is(res.Err, ErrClosed):
		return ErrClosed
	case errors.Is(res.Err, ErrPeerDown):
		return ErrPeerDown
	default:
		// ErrTimeout (and op-level errors) deliberately stay in the
		// Result: the transport did not fail, the operation did.
		return nil
	}
}

// abandon gives up on a pending completion after a timeout. The in-flight
// request cannot be recalled — the server side may execute it at any
// moment — and its entry cannot be reclaimed until the server releases the
// slot, so the (slot, index) pair moves to the thread's abandoned list for
// reapAbandoned to consume later. The completion itself resolves to
// ErrTimeout.
func (c *Completion) abandon() {
	c.t.abandoned = append(c.t.abandoned, abandonedRef{s: c.slot, idx: c.idx})
	c.t.rt.rec.Add(c.t.id, c.slot.Payload().part.id, obs.Abandoned, 1)
	c.slot = nil
	c.res = Result{Err: ErrTimeout}
	c.done = true
}

// reapAbandoned reclaims abandoned entries whose servers have finished
// with them: the stale result is discarded, a captured panic routes
// through the panic policy (no completion will ever re-raise it), and the
// entry's slot moves one step closer to sendable (live reaches zero once
// every entry is consumed). Entries in slots still pending stay on the
// list. Returns how many entries were reclaimed.
func (t *Thread) reapAbandoned() int {
	if len(t.abandoned) == 0 {
		return 0
	}
	kept := t.abandoned[:0]
	reaped := 0
	for _, a := range t.abandoned {
		if a.s.Pending() {
			kept = append(kept, a)
			continue
		}
		m := a.s.Payload()
		e := &m.ops[a.idx]
		pv := e.panicVal
		part := m.part
		key := e.key
		e.res = Result{}
		e.panicVal = nil
		m.live--
		reaped++
		if pv != nil {
			t.rt.deliverPanic(PanicInfo{Value: pv, ThreadID: t.id, Partition: part.id, Key: key, Async: false})
		}
	}
	for i := len(kept); i < len(t.abandoned); i++ {
		t.abandoned[i] = abandonedRef{}
	}
	t.abandoned = kept
	return reaped
}

// finish copies the result out of the completion's burst entry, clears the
// entry's references (so it doesn't pin the result for GC until reuse),
// consumes the entry (the slot becomes claimable once its last live entry
// is consumed), records the send→completion latency, and re-raises any
// panic captured from the operation.
//
//dps:noalloc via ExecuteSync
func (c *Completion) finish() {
	m := c.slot.Payload()
	e := &m.ops[c.idx]
	c.res = e.res
	pv := e.panicVal
	part := m.part
	key := e.key
	e.res = Result{}
	e.panicVal = nil
	m.live--
	c.done = true
	c.slot = nil
	rt := c.t.rt
	d := rt.rec.Since(c.sent)
	rt.rec.Observe(c.t.id, obs.HistSyncDelegation, d)
	if rt.tracing {
		rt.tracer.OnComplete(c.t.id, part.id, key, d)
	}
	if pv != nil {
		panic(pv)
	}
}
