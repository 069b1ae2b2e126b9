package core

import (
	"runtime"
	"time"

	"dps/internal/obs"
	"dps/internal/wire"
)

// Parked waiting. Every delegation wait — a completion await, Drain, the
// ring-full send path — on either tier pauses through one waiter, which
// escalates in two stages:
//
//  1. pure Gosched for the waiter's spin budget, which depends on what
//     resolves its target. A ring slot is released by a serving goroutine
//     that needs a processor, and a yield hands it ours: the reply is a few
//     polls away and blocking would add latency, so the budget is
//     waitSpinYield pauses. A wire token is resolved by a socket turning
//     readable, and Go polls the network only from a processor with nothing
//     to run — a yielding waiter keeps the poll from happening — so the
//     budget is the few pauses of wire.AwaitSpin;
//  2. parking: the waiter arms its ring.Parker slot, advertises itself in
//     its locality's parked set, re-checks its wake condition (so a wake
//     that raced the arming is never lost), and blocks until it is woken —
//     by a sender ringing its locality's doorbell, by the thread that
//     served its ring, by the link reader that resolved its wire burst —
//     or a timeout fires. Timeouts double from waitParkMin to waitParkMax,
//     so even a lost wake costs at most ~1ms of latency — and a timed-out
//     park forces the waiter's next serve pass to be a full ring scan, so a
//     doorbell bit lost to a fault is rediscovered within one park timeout.
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
// is what ends it.
//
// Any progress (local serves, or partition progress between samples)
// resets the waiter to stage 1.
const (
	// waitSpinYield is how many pauses of a wait on a ring slot stay pure
	// Gosched before parking (a wait on a wire token: wire.AwaitSpin).
	waitSpinYield = 64
	// waitParkMin is the first park timeout; it doubles each park.
	waitParkMin = 64 * time.Microsecond
	// waitParkMax caps the park timeout. A lost wake (dropped doorbell,
	// chaos fault) therefore costs at most ~1ms before the waiter
	// rechecks on its own.
	waitParkMax = 1024 * time.Microsecond
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
//
//dps:noalloc via ExecuteSync
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

// newWaiter starts a wait episode. A wait on a partition owned by a peer
// process is never unbounded — no rescue reaches into that process, so a
// connected peer that stops answering would hold the waiter forever — and
// takes the peer's configured timeout when the caller sets no deadline. The
// same wait is resolved by the network, not by a goroutine a yield could
// run, and spins for wire.AwaitSpin pauses only.
func newWaiter(t *Thread, p *Partition, on target, deadline time.Time) waiter {
	spin := waitSpinYield
	if p.peer != nil {
		spin = wire.AwaitSpin
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
//
//dps:noalloc via ExecuteSync
func (w *waiter) expired() bool {
	if w.deadline.IsZero() || (w.idle <= w.spin && w.idle%waitClockEvery != 0) {
		return false
	}
	// time.Until reads the monotonic clock alone, half the cost of time.Now.
	return time.Until(w.deadline) <= 0
}

// reset returns the waiter to the spin stage; callers invoke it whenever
// they made progress themselves (e.g. served requests).
func (w *waiter) reset() { w.idle, w.parks, w.timeout, w.sampled = 0, 0, 0, false }

// pause blocks the waiter briefly, escalating per the schedule above.
//
//dps:bounded-wait
//dps:noalloc via ExecuteSync
func (w *waiter) pause() {
	w.idle++
	if w.idle <= w.spin {
		// The stall check cannot trigger in the spin stage: it samples
		// only on park boundaries.
		runtime.Gosched()
		return
	}
	w.park()
}

// park blocks the waiter on its Parker slot until it is woken or the
// current timeout fires. The armed→advertise→recheck order is the lost-
// wakeup guard: whoever resolves the target — a server releasing the slot,
// the link reader resolving the burst — publishes that state and then calls
// Wake, so it either sees the armed slot (and wakes us) or ran before we
// armed — in which case the recheck observes its published state and we
// never block.
//
//dps:bounded-wait
//dps:noalloc via ExecuteSync
func (w *waiter) park() {
	t := w.t
	rt := t.rt
	myloc := rt.parts[t.locality]
	if w.timeout == 0 {
		w.timeout = waitParkMin
	}

	rt.parker.Prepare(t.id)
	if myloc.parked != nil {
		myloc.parked.Set(t.id)
	}
	// Recheck after arming: anything that would have woken us and could
	// have fired before the slot was armed must be caught here.
	if rt.down.Load() || myloc.bell.Any() || !w.on.pending() {
		rt.parker.Cancel(t.id)
		if myloc.parked != nil {
			myloc.parked.Clear(t.id)
		}
		return
	}
	rt.rec.Add(t.id, w.p.id, obs.Parks, 1)
	if !rt.parker.Park(t.id, &t.parkTimer, w.timeout) {
		// Timed out with no wake: assume a lost signal and make the next
		// serve pass a full ring scan, so a dropped doorbell bit is
		// rediscovered within one park timeout instead of the full
		// serveFullScanEvery cadence.
		t.forceFullScan()
	}
	if myloc.parked != nil {
		myloc.parked.Clear(t.id)
	}

	if w.timeout < waitParkMax {
		w.timeout *= 2
	}
	w.parks++
	if w.parks%waitStallParks == 0 {
		w.checkStall()
	}
}

// checkStall samples the partition's progress clock and escalates when two
// consecutive samples match while the target is still pending.
//
//dps:noalloc via ExecuteSync
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
// remedy: forced rescue of s on a local partition, nothing on a peer's (s is
// nil there) beyond the PeerStalls mark.
//
//dps:noalloc via ExecuteSync
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
	if s != nil {
		t.forceRescue(p, s)
	}
}
