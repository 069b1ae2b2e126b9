package core

import (
	"runtime"
	"time"

	"dps/internal/obs"
	"dps/internal/wire"
)

// Waiting. Every delegation wait — a completion await, Drain, the ring-full
// send path — on either tier runs the one loop in waiter.await, and each of
// its rounds does the same four things in the same order while the target is
// still pending:
//
//  1. down: after Shutdown or Close the wait ends with ErrClosed;
//  2. deadline: past it the wait ends with ErrTimeout — checked before
//     serving, so a locality with a steady trickle of delegated work cannot
//     keep its waiter from timing out (expired says how often the clock is
//     read);
//  3. serve: the waiter serves one pass of its own locality (§4.3, §4.4) —
//     and, when no thread of the destination locality will serve its
//     target (every thread there is parked or Idle, or none is left:
//     Partition.unattended, the rule issue applies), executes its own ring
//     to it (selfServe). A round that executed something made progress:
//     the waiter returns to stage 1 of the pause schedule below;
//  4. pause, if the target is still pending after all that.
//
// What the wait ends in is the caller's: Completion.await consumes the result
// or abandons the operation with the loop's error, Drain moves on to the next
// burst, the ring-full path re-examines its slot. The thread's open bursts
// are published once, before the loop — nothing a round does can open
// another.
//
// The deadline is one rule: Config.OpTimeout bounds every call that hands
// its caller a Result — ExecuteSync, ExecuteInto, Completion.Result,
// ExecutePartition, ExecuteAll, ExecuteLocal on a peer's partition — across
// all of its waits (a ring-full wait, then the await), one deadline per call,
// read off the clock when the call first has to wait; an inline operation or
// a completion already resolved never reads it. A wait on a peer's partition
// that has no deadline takes Peer.Timeout's: no rescue reaches into another
// process. ExecuteAsync's ring-full wait and Drain are outside the rule. They
// have no Result that could carry ErrTimeout, and dropping a queued write on
// a timer would lose it silently; they end when the work is served, at
// shutdown, or at Peer.Timeout toward a peer.
//
// A pause escalates in two stages:
//
//  1. pure Gosched for the waiter's spin budget, which depends on what
//     resolves its target. A ring slot is released by a serving goroutine
//     that needs a processor, and a yield hands it ours: the reply is a few
//     polls away and blocking would add latency, so the budget is
//     waitSpinYield pauses. A wire token is resolved by whoever reads its
//     connection, which is the waiter itself when nobody else is: a yield
//     reads nothing, so the budget is zero;
//  2. parking (Thread.park, which a dedicated server's ServeWait shares): the
//     waiter arms its ring.Parker slot, advertises itself in its locality's
//     parked set, re-checks its wake condition (so a wake that raced the
//     arming is never lost), and blocks until it is woken — by a sender
//     ringing its locality's doorbell, by the thread that served its ring, by
//     the thread reading the connection that resolved its wire burst or
//     handed the reading on — or a timeout fires. A waiter on a wire token
//     whose connection nobody reads blocks in the socket read instead
//     (wire.Tok.Read), with the timeout as the read's deadline, resolving
//     whatever bursts it reads; it counts as parked toward its locality's
//     unattended rule (the reading count, which no publish picks from).
//     Timeouts double from waitParkMin to waitParkMax, so even a lost wake
//     costs at most ~1ms of latency — and a timed-out park forces the
//     thread's next serve pass to be a full ring scan, so a doorbell bit lost
//     to a fault is rediscovered within one park timeout.
//
// Stall detection rides the park stage: every waitStallParks parks the
// waiter samples the destination partition's serving-progress clock; two
// consecutive samples with no progress while its request is still pending
// mean nobody is serving the partition. What follows is the one step that
// depends on where the partition lives (stalledOn): a local partition gets a
// Stalls event and a forced rescue — the waiter claims its own ring and
// executes the stuck prefix itself, workers or not; a partition in a peer
// process, whose progress clock this process never sees advance and which
// no rescue can reach, gets a PeerStalls event, and the bound on the wait
// is what ends it. Partition progress between samples, like a serving round,
// resets the waiter to stage 1.
const (
	// waitSpinYield is how many pauses of a wait on a ring slot stay pure
	// Gosched before parking (a wait on a wire token parks at once).
	waitSpinYield = 64
	// waitParkMin is the first park timeout; it doubles each park.
	waitParkMin = 64 * time.Microsecond
	// waitParkMax caps the park timeout. A lost wake (dropped doorbell,
	// chaos fault) therefore costs at most ~1ms before the waiter
	// rechecks on its own.
	waitParkMax = 1024 * time.Microsecond
	// waitPollRead is how long Completion.Ready reads a pending wire token's
	// connection: time for one socket read of what has arrived, not a wait.
	waitPollRead = 5 * time.Microsecond
	// waitStallParks is how many parks pass between progress samples.
	// With timeouts capped at waitParkMax (and servers waking parked
	// waiters well before timeout when live), a stall is declared after
	// roughly 30-60ms of observed zero progress, and re-checked (with
	// renewed escalation) every window after that.
	waitStallParks = 16
	// waitClockEvery is how many spin-stage pauses share one deadline check
	// (see expired).
	waitClockEvery = 16
)

// target is what a wait is for: a ring slot the serving side has yet to
// release, or a wire token whose burst has yet to resolve. The zero target
// is not pending.
type target struct {
	slot *slot
	tok  wire.Tok
}

// pending reports whether the target is still in the serving side's hands.
func (g target) pending() bool {
	if g.slot != nil {
		return g.slot.Pending()
	}
	if g.tok.Zero() {
		return false
	}
	_, resolved := g.tok.Ready()
	return !resolved
}

// waiter tracks one wait episode: for target on, sent to partition p, until
// deadline (zero: none), yielding for its first spin pauses. The zero value is
// not usable; build with newWaiter.
type waiter struct {
	t        *Thread
	p        *Partition
	on       target
	deadline time.Time
	spin     int
	idle     int
	parks    int
	timeout  time.Duration
	progress uint64
	sampled  bool
}

// newWaiter starts a wait episode of the call whose deadline is *call — nil
// for a wait outside the OpTimeout rule. A zero *call is set here, so the
// call's first wait reads the clock and its later waits share the deadline. A
// wait on a partition owned by a peer process is never unbounded — no rescue
// reaches into that process, so a connected peer that stops answering would
// hold the waiter forever — and takes the peer's configured timeout when it
// has no other deadline. The same wait is resolved by its own read of the
// connection, which a yield does not do, so it has no spin stage.
func newWaiter(t *Thread, p *Partition, on target, call *time.Time) waiter {
	var deadline time.Time
	if call != nil && t.rt.cfg.OpTimeout > 0 {
		if call.IsZero() {
			*call = time.Now().Add(t.rt.cfg.OpTimeout)
		}
		deadline = *call
	}
	spin := waitSpinYield
	if p.peer != nil {
		spin = 0
		if deadline.IsZero() {
			deadline = time.Now().Add(p.peer.Timeout())
		}
	}
	return waiter{t: t, p: p, on: on, deadline: deadline, spin: spin}
}

// expired reports whether the episode's deadline has passed. Wait loops
// consult it every iteration, before serving: a locality with a steady
// trickle of delegated work must not keep its waiter from timing out. A
// clock read costs as much as a third of a spin-stage iteration (40–75 ns on
// a virtualized host), and the spin stage is where the wait's latency is
// decided, so there the clock is read on every waitClockEvery-th pause only
// — the first after every reset included — and past it on every pause; the
// deadline is noticed at most waitClockEvery-1 yields late, or the waiter's
// whole spin budget when that is shorter.
func (w *waiter) expired() bool {
	if w.deadline.IsZero() || (w.idle <= w.spin && w.idle%waitClockEvery != 0) {
		return false
	}
	// time.Until reads the monotonic clock alone, half the cost of time.Now.
	return time.Until(w.deadline) <= 0
}

// reset returns the waiter to the spin stage, after progress: a round that
// served requests, or the destination partition moving between stall samples.
func (w *waiter) reset() { w.idle, w.parks, w.timeout, w.sampled = 0, 0, 0, false }

// await is the one wait loop (the header has its order): it runs rounds until
// the target has resolved and returns nil, or returns the error that ended
// the wait first — ErrClosed after shutdown, ErrTimeout past the deadline. It
// tests the target after each round, not before the first: callers return at
// once on a resolved target themselves, and the ring-full path enters with a
// released slot it still cannot use, where the round is what observes
// shutdown and the deadline.
func (w *waiter) await() error {
	t := w.t
	for {
		if t.rt.down.Load() {
			return ErrClosed
		}
		if w.expired() {
			return ErrTimeout
		}
		if t.serve()+t.selfServe(w.p, w.on.slot) > 0 {
			w.reset()
		} else if w.on.pending() {
			// Polled once more before the processor is given away: a reply
			// that landed during the serve pass costs a whole yield less to
			// take now (a third of a pause per synchronous delegation,
			// measured).
			w.pause()
		}
		if !w.on.pending() {
			return nil
		}
	}
}

// pause blocks the waiter briefly, escalating per the schedule above: a yield
// within the spin budget, then timed parks that double from waitParkMin to
// waitParkMax, with a stall sample every waitStallParks parks (which cannot
// trigger in the spin stage).
func (w *waiter) pause() {
	w.idle++
	if w.idle <= w.spin {
		runtime.Gosched()
		return
	}
	if w.timeout == 0 {
		w.timeout = waitParkMin
	}
	if !w.t.park(&w.on, w.p.id, w.timeout) {
		return
	}
	if w.timeout < waitParkMax {
		w.timeout *= 2
	}
	w.parks++
	if w.parks%waitStallParks == 0 {
		w.checkStall()
	}
}

// park is the one place a thread blocks: on its Parker slot, for at most d,
// until it is woken. on is what the thread waits for (nil for a dedicated
// server, which waits for work only) and part the partition the park is
// counted against. The arm → advertise → re-check order is the lost-wakeup
// guard: whoever would wake the thread — a sender ringing its locality's
// doorbell, a server releasing its slot, the thread reading its connection
// resolving its burst or handing the reading on, Shutdown — publishes that
// state and then calls Wake, so it either sees the armed slot (and wakes us)
// or ran before we armed — in which case the re-check observes its published
// state and the thread never blocks; park then reports false. A wait on a
// wire token reads its connection for d instead, if nobody else does
// (Tok.Read). No wake reaches a thread in that read, so it advertises itself
// through its locality's reading count, where a publish cannot pick it, and
// a sender runs an operation toward the locality itself; if another thread
// holds the reading, the wait parks on its slot after all, which that reader
// wakes when it leaves. A park that times out with no wake — or a read that
// ends with the token still pending — assumes a lost signal and makes the
// next serve pass a full ring scan, so a dropped doorbell bit is rediscovered
// within one park timeout instead of the full serveFullScanEvery cadence.
func (t *Thread) park(on *target, part int, d time.Duration) bool {
	rt := t.rt
	myloc := rt.parts[t.locality]
	quiet := func() bool { return !rt.down.Load() && !myloc.bell.Any() && (on == nil || on.pending()) }
	rt.parker.Prepare(t.id)
	reads := on != nil && !on.tok.Zero()
	if reads {
		myloc.reading.Add(1)
	} else {
		myloc.parked.Set(t.id)
	}
	blocked := quiet()
	if reads && blocked && !on.tok.Read(d) {
		// Another thread holds the reading: park on the slot it wakes.
		myloc.parked.Set(t.id)
		myloc.reading.Add(-1)
		reads, blocked = false, quiet()
	}
	if !blocked || reads {
		rt.parker.Cancel(t.id)
	}
	if blocked {
		rt.rec.Add(t.id, part, obs.Parks, 1)
		if reads && on.pending() || !reads && !rt.parker.Park(t.id, &t.parkTimer, d) {
			t.forceFullScan()
		}
	}
	if reads {
		myloc.reading.Add(-1)
	} else {
		myloc.parked.Clear(t.id)
	}
	return blocked
}

// checkStall samples the partition's progress clock and escalates when two
// consecutive samples match while the target is still pending.
func (w *waiter) checkStall() {
	prog := w.t.rt.rec.PartitionProgress(w.p.id)
	if !w.sampled {
		w.sampled, w.progress = true, prog
		return
	}
	if prog != w.progress || !w.on.pending() {
		// Trickle progress: the partition is slow, not stalled.
		w.reset()
		return
	}
	w.t.stalledOn(w.p, w.on.slot)
}

// stalledOn records a stall against partition p and applies the tier's
// remedy. On a local partition that is the forced rescue of s: p still has
// registered workers, but none has served anything across a full
// stall-detection window (blocked outside DPS, descheduled, or wedged by an
// injected fault), so the waiter executes its own ring. When the claim is
// held — possibly by the very thread that is wedged — the waiter simply
// escalates again next window. On a peer's partition (s is nil there)
// nothing follows the PeerStalls mark.
func (t *Thread) stalledOn(p *Partition, s *slot) {
	stalls := obs.Stalls
	if p.peer != nil {
		stalls = obs.PeerStalls
	}
	t.rt.rec.Add(t.id, p.id, stalls, 1)
	if t.rt.tracing {
		var key uint64
		if s != nil {
			key = s.Payload().ops[0].key
		}
		t.rt.tracer.OnStall(t.id, p.id, key)
	}
	if s != nil && s.Pending() {
		t.drain(p, t.id, t.rt.wholeRing(), obs.Rescued)
	}
}
