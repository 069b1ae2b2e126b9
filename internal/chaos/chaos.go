// Package chaos is the DPS runtime's deterministic fault-injection layer.
// It exists because the peer-delegation protocol (§4.3-§4.4 of the paper)
// is liveness-critical: every completion await, drain barrier, and
// ring-full send assumes some peer eventually serves the destination ring.
// The injector lets tests and benchmarks revoke that assumption on purpose
// — claims that fail, servers that dawdle, operations that panic, rings
// that report full — so the hardening paths (timeouts, panic policy, stall
// escalation, rescue, shutdown) are exercised instead of trusted.
//
// # Determinism
//
// Every injection decision is a pure function of (Seed, draw index): draw n
// hashes Seed+n through a SplitMix64 finalizer and compares the result
// against the fault's precomputed threshold. Single-threaded scenarios
// therefore replay exactly under the same seed; concurrent scenarios
// interleave draws nondeterministically but consume the same decision
// stream, so fault densities are stable run to run.
//
// # Cost discipline
//
// The runtime guards every hook behind a nil *Injector check, so a build
// with chaos compiled in but disabled pays one predictable branch per hook
// site and nothing else. An enabled injector pays one atomic increment and
// one multiply-xor hash per draw.
package chaos

import (
	"errors"
	"sync/atomic"
	"time"
)

// ErrInjectedPanic is the value injected operation panics are raised with,
// so tests can tell an injected fault from a genuine bug.
var ErrInjectedPanic = errors.New("chaos: injected delegated-op panic")

// Config sets the per-fault injection probabilities (0 disables a fault,
// 1 fires it on every draw) and the delay magnitudes.
type Config struct {
	// Seed selects the decision stream. Two injectors with the same Seed
	// and Config make identical decisions at identical draw indices.
	Seed uint64

	// DropClaimProb is the probability that a serve-claim attempt
	// (ring.Ring.TryClaim) artificially fails, starving a ring of service
	// the way a descheduled or wedged peer would.
	DropClaimProb float64

	// ServeDelayProb delays a serving thread for ServeDelay before it
	// claims a ring, simulating a slow server arriving late.
	ServeDelayProb float64
	// ServeDelay is the sleep applied when ServeDelayProb fires.
	ServeDelay time.Duration

	// OpDelayProb stretches a delegated operation's execution by OpDelay,
	// simulating slow data-structure operations that keep the claim held.
	OpDelayProb float64
	// OpDelay is the sleep applied when OpDelayProb fires.
	OpDelay time.Duration

	// OpPanicProb makes a delegated operation panic with ErrInjectedPanic
	// before it executes, exercising the runtime's panic policy.
	OpPanicProb float64

	// RingFullProb makes a sender treat its destination ring as full even
	// when a slot is free, forcing the §4.4 back-pressure path (serve,
	// back off, retry) far more often than real occupancy would.
	RingFullProb float64

	// DropDoorbellProb makes a sender publish a slot WITHOUT ringing the
	// destination locality's doorbell — the lost-wakeup fault. Correctness
	// then rests entirely on the serve loop's periodic full-scan fallback
	// (and the rescue machinery) finding the silent ring.
	DropDoorbellProb float64

	// SplitBurstProb makes a sender close its open burst early, so an
	// operation that would have packed into the current slot claims a
	// fresh one. It degrades burst occupancy toward one op per slot,
	// exercising the same slot boundaries single-op traffic would.
	SplitBurstProb float64

	// DropFrameProb makes the cross-process transport (internal/wire)
	// silently discard an encoded request frame instead of writing it to
	// the peer connection — the lost-packet fault. Correctness then rests
	// on the sender's deadline machinery: every operation in the dropped
	// burst must resolve with ErrTimeout, never hang.
	DropFrameProb float64

	// SlowLinkProb delays a frame write by SlowLinkDelay, simulating a
	// congested or high-latency link between peer processes.
	SlowLinkProb float64
	// SlowLinkDelay is the sleep applied when SlowLinkProb fires.
	SlowLinkDelay time.Duration

	// PeerDownProb makes the transport sever the peer connection before a
	// frame write — the crashed-peer fault. In-flight completions on the
	// link must resolve with ErrClosed and the client must reconnect.
	PeerDownProb float64
}

// Counts reports how many times each fault has fired.
type Counts struct {
	ClaimsDropped uint64
	ServeDelays   uint64
	OpDelays      uint64
	OpPanics      uint64
	RingFulls     uint64
	DoorbellsLost uint64
	BurstsSplit   uint64
	FramesDropped uint64
	LinkDelays    uint64
	PeerDrops     uint64
}

// Injector makes fault decisions for one runtime. It is safe for
// concurrent use; the zero Injector is invalid — use New.
type Injector struct {
	seed uint64
	seq  atomic.Uint64

	// thresholds precomputed from the Config probabilities so a draw is
	// one hash and one compare, no floating point.
	dropClaim, serveDelay, opDelay, opPanic, ringFull, dropBell, splitBurst uint64
	dropFrame, slowLink, peerDown                                           uint64

	serveDelayDur, opDelayDur, slowLinkDur time.Duration

	claimsDropped, serveDelays, opDelays, opPanics, ringFulls, doorbellsLost, burstsSplit atomic.Uint64
	framesDropped, linkDelays, peerDrops                                                  atomic.Uint64
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	return &Injector{
		seed:          cfg.Seed,
		dropClaim:     threshold(cfg.DropClaimProb),
		serveDelay:    threshold(cfg.ServeDelayProb),
		opDelay:       threshold(cfg.OpDelayProb),
		opPanic:       threshold(cfg.OpPanicProb),
		ringFull:      threshold(cfg.RingFullProb),
		dropBell:      threshold(cfg.DropDoorbellProb),
		splitBurst:    threshold(cfg.SplitBurstProb),
		dropFrame:     threshold(cfg.DropFrameProb),
		slowLink:      threshold(cfg.SlowLinkProb),
		peerDown:      threshold(cfg.PeerDownProb),
		serveDelayDur: cfg.ServeDelay,
		opDelayDur:    cfg.OpDelay,
		slowLinkDur:   cfg.SlowLinkDelay,
	}
}

// threshold maps a probability to the uint64 compare bound a hashed draw
// is tested against.
func threshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	return uint64(p * float64(^uint64(0)))
}

// mix64 is the SplitMix64 finalizer (the same mixer the runtime's default
// key hash uses), giving each draw index an independent uniform word.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll consumes one draw and reports whether it lands under bound.
func (i *Injector) roll(bound uint64) bool {
	if bound == 0 {
		return false
	}
	n := i.seq.Add(1)
	return mix64(i.seed+n*0x9e3779b97f4a7c15) < bound
}

// DropClaim reports whether a serve-claim attempt should artificially
// fail. Wired into ring.Ring via SetClaimFault.
func (i *Injector) DropClaim() bool {
	if !i.roll(i.dropClaim) {
		return false
	}
	i.claimsDropped.Add(1)
	return true
}

// BeforeServe runs on a serving thread before it tries to claim a ring,
// injecting the slow-server delay.
func (i *Injector) BeforeServe() {
	if !i.roll(i.serveDelay) {
		return
	}
	i.serveDelays.Add(1)
	time.Sleep(i.serveDelayDur)
}

// BeforeOp runs on the serving thread immediately before a delegated
// operation executes, inside the runtime's recover scope: it may stretch
// the operation (OpDelay) or panic with ErrInjectedPanic (OpPanic).
func (i *Injector) BeforeOp() {
	if i.roll(i.opDelay) {
		i.opDelays.Add(1)
		time.Sleep(i.opDelayDur)
	}
	if i.roll(i.opPanic) {
		i.opPanics.Add(1)
		panic(ErrInjectedPanic)
	}
}

// RingFull reports whether a send should treat its destination ring as
// full regardless of real occupancy.
func (i *Injector) RingFull() bool {
	if !i.roll(i.ringFull) {
		return false
	}
	i.ringFulls.Add(1)
	return true
}

// DropDoorbell reports whether a publish should skip ringing the
// destination doorbell, simulating a lost wakeup.
func (i *Injector) DropDoorbell() bool {
	if !i.roll(i.dropBell) {
		return false
	}
	i.doorbellsLost.Add(1)
	return true
}

// SplitBurst reports whether a sender should close its open burst early
// instead of packing the next operation into it.
func (i *Injector) SplitBurst() bool {
	if !i.roll(i.splitBurst) {
		return false
	}
	i.burstsSplit.Add(1)
	return true
}

// DropFrame reports whether the wire transport should silently discard
// the request frame it is about to write, simulating packet loss the
// kernel never reports.
func (i *Injector) DropFrame() bool {
	if !i.roll(i.dropFrame) {
		return false
	}
	i.framesDropped.Add(1)
	return true
}

// SlowLink runs before a frame write, injecting the congested-link delay.
func (i *Injector) SlowLink() {
	if !i.roll(i.slowLink) {
		return
	}
	i.linkDelays.Add(1)
	time.Sleep(i.slowLinkDur)
}

// PeerDown reports whether the wire transport should sever the peer
// connection before the next frame write, simulating a peer crash.
func (i *Injector) PeerDown() bool {
	if !i.roll(i.peerDown) {
		return false
	}
	i.peerDrops.Add(1)
	return true
}

// Counts snapshots how many times each fault has fired so far.
func (i *Injector) Counts() Counts {
	return Counts{
		ClaimsDropped: i.claimsDropped.Load(),
		ServeDelays:   i.serveDelays.Load(),
		OpDelays:      i.opDelays.Load(),
		OpPanics:      i.opPanics.Load(),
		RingFulls:     i.ringFulls.Load(),
		DoorbellsLost: i.doorbellsLost.Load(),
		BurstsSplit:   i.burstsSplit.Load(),
		FramesDropped: i.framesDropped.Load(),
		LinkDelays:    i.linkDelays.Load(),
		PeerDrops:     i.peerDrops.Load(),
	}
}
