// Package ring is the delegation transport shared by the DPS runtime
// (internal/core) and the ffwd baseline (internal/ffwd): cache-line-padded
// request/completion slots governed by the paper's toggle-bit ownership
// discipline (§4.2), and a fixed-depth ring of such slots with a
// single-writer send cursor and an atomic serve-claim token.
//
// The slot layout *is* the performance artifact of delegation systems: a
// request and its completion share one padded line, so publishing a request
// and publishing its response each move exactly one line between sender and
// server. Both protocols the repository implements — DPS's peer-served
// per-(thread, partition) rings and ffwd's per-(client, server) request
// lines with batched responses — are built from the same Slot primitive, so
// the padding and ordering rules are audited in one place instead of
// drifting across packages.
//
// # The five-step protocol
//
// Every delegation tier runs the same five steps: claim a burst container,
// pack operations into it, publish it (with a doorbell, so the serving side
// finds it without scanning), have the owning locality serve it, and
// complete each operation back to the sender. Nothing is visible to the
// serving side before the publish, and every blocking call on the sending
// thread publishes first, so a packed operation is never held back by an
// idle sender.
//
// In process (this package + internal/core): claim is the toggle discipline
// on the sender's next ring slot, pack fills the slot's inline burst vector,
// publish is Slot.Publish followed by Doorbell.Set, serve is TryClaim/Drain
// on the receiving locality, and completion is the toggle release observed
// by the sender's poll — or by its Parker slot, when it parked.
//
// Across processes (internal/wire): claim borrows a frame buffer, pack
// appends encoded entries (StagedOp is the operation in the form that can
// cross), publish writes one length-prefixed frame to the peer's TCP
// connection (the frame itself is the doorbell — the peer's read loop wakes
// on arrival), serve is the peer process decoding the burst and applying it
// through its normal serve path, and completion is a response frame matched
// to the request's sequence number, after which the link's reader wakes the
// sender's Parker slot.
//
// # Ownership protocol
//
// A slot's toggle word carries ownership: the sender populates the payload
// and calls Publish (toggle←1, payload writes happen-before); the server
// observes Pending, executes, writes the response into the payload, and
// calls Release (toggle←0, response writes happen-before). Sender-private
// payload fields (e.g. a consumed flag) ride the same synchronization.
//
// # Padding
//
// Slot adds no padding itself — Go generics cannot derive a pad from an
// arbitrary payload — so payload types carry their own trailing pad and
// assert the invariant at compile time:
//
//	const _ = -(unsafe.Sizeof(ring.Slot[msg]{}) % ring.Stride)
//
// which fails to compile (negative uintptr constant) unless the padded slot
// is a whole number of strides, guaranteeing neighbouring slots never share
// a line.
package ring

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Stride is the padding unit for slots and cursors: two 64-byte lines,
// covering the spatial-prefetcher pairing on common x86 parts (matching
// internal/obs's counter-block stride).
const Stride = 128

// DefaultBatch is the per-claim serve batch from ffwd's analysis (§5.1 of
// the paper: "one cache coherency operation for sending a batch of (up to
// 15) responses"). DPS's serve loop uses it as the default drain bound so a
// serving thread re-checks its own completions at the same granularity.
const DefaultBatch = 15

// Args carries a delegated operation's arguments: up to four word-sized
// arguments, as in the paper's one-cache-line message format (§4.2), plus
// one reference argument as a Go convenience for operations that pass
// structured data without the pointer-in-word games the C original plays.
// Both internal/core and internal/ffwd alias this type, so requests cross
// either transport in the same layout.
type Args struct {
	// U holds up to four word arguments, as in the paper's message format.
	U [4]uint64
	// P is an optional reference argument.
	P any
}

// Result is a delegated operation's return value: one word (mirroring the
// message's return-value slot), an optional reference result, and an
// optional error for operation-level failures (e.g. key not found, if the
// wrapped data-structure chooses to express it that way).
type Result struct {
	// U is the word-sized return value.
	U uint64
	// P is an optional reference result.
	P any
	// Err reports an operation-level failure.
	Err error
}

// Slot is one padded request/completion line holding a caller-defined
// payload T. The zero value is sender-owned and empty.
type Slot[T any] struct {
	val T
	// toggle is the ownership word: storing it publishes every preceding
	// payload write to the other side.
	toggle atomic.Uint32
}

// Payload returns the slot's payload. The caller must own the slot per the
// toggle protocol (sender before Publish, server between Pending and
// Release); the pointer is stable for the slot's lifetime.
func (s *Slot[T]) Payload() *T { return &s.val }

// Pending reports whether the server side owns the slot (toggle set). The
// atomic load acquires the owner's preceding payload writes.
func (s *Slot[T]) Pending() bool { return s.toggle.Load() == 1 }

// Publish transfers the slot to the server side, releasing the sender's
// payload writes.
func (s *Slot[T]) Publish() { s.toggle.Store(1) }

// Release transfers the slot back to the sender side, releasing the
// server's response writes. ffwd batches Releases to amortize response
// coherence traffic; DPS releases per message.
func (s *Slot[T]) Release() { s.toggle.Store(0) }

// Ring is a fixed-depth buffer of slots for one sender/receiver channel.
// The toggle bit in each slot substitutes for head/tail comparison on the
// send side (§4.2): a sender finding its next slot unavailable knows the
// ring is full.
//
// The send cursor is single-writer: only the owning sender thread touches
// it. The receive cursor is guarded by the claim token — an atomic that
// replaces the per-ring mutex of earlier revisions, so the common serve
// path costs one uncontended CAS instead of a lock/unlock pair, and
// concurrent servers (or the designated poller, §4.4) skip a claimed ring
// rather than queue behind it.
type Ring[T any] struct {
	slots []Slot[T]

	// sendIdx is the sender's next-slot cursor, padded away from the
	// receive-side state so the sender's cursor bump never invalidates the
	// server's line.
	sendIdx int
	_       [Stride - 32]byte

	// cursor is the receive-side scan position; read and written only
	// while claim is held.
	cursor int
	claim  atomic.Uint32

	// claimFault, when set, makes TryClaim artificially fail — the
	// fault-injection hook for dropped/starved serve claims. The nil guard
	// is the only cost when no fault layer is installed.
	claimFault func() bool
}

// New creates a ring with depth slots, all sender-owned and zero.
func New[T any](depth int) *Ring[T] {
	return &Ring[T]{slots: make([]Slot[T], depth)}
}

// Depth returns the number of slots.
func (r *Ring[T]) Depth() int { return len(r.slots) }

// Slot returns slot i, for initialization sweeps and diagnostics.
func (r *Ring[T]) Slot(i int) *Slot[T] { return &r.slots[i] }

// SendSlot returns the slot at the send cursor. The sender checks
// availability itself (Pending plus any sender-private reuse condition) and
// calls AdvanceSend once it decides to use the slot. Sender-side only.
func (r *Ring[T]) SendSlot() *Slot[T] { return &r.slots[r.sendIdx] }

// Sent returns the slot i places before the send cursor, 0 <= i < Depth:
// Sent(0) is the newest slot the sender has advanced past. The receive side
// drains in FIFO order, so while a slot is not pending no earlier slot is
// either. Sender-side only.
func (r *Ring[T]) Sent(i int) *Slot[T] {
	j := r.sendIdx - 1 - i
	if j < 0 {
		j += len(r.slots)
	}
	return &r.slots[j]
}

// AdvanceSend moves the send cursor past the slot SendSlot returned.
// Sender-side only.
func (r *Ring[T]) AdvanceSend() {
	r.sendIdx++
	if r.sendIdx == len(r.slots) {
		r.sendIdx = 0
	}
}

// SetClaimFault installs a fault hook consulted by TryClaim: when it
// returns true the claim attempt fails as if another server held the ring.
// Install before the ring is shared with serving threads; the field is not
// synchronized. Claim is exempt.
func (r *Ring[T]) SetClaimFault(f func() bool) { r.claimFault = f }

// TryClaim attempts to acquire the serve token without blocking. On success
// the caller owns the receive cursor until Unclaim.
func (r *Ring[T]) TryClaim() bool {
	if r.claimFault != nil && r.claimFault() {
		return false
	}
	return r.claim.CompareAndSwap(0, 1)
}

// Claim acquires the serve token, yielding while another server holds it,
// for a server that must win the ring (the end-to-end benchmark's ring
// probe; the DPS runtime serves through TryClaim only). The wait is bounded
// by the claim holder's current drain batch.
func (r *Ring[T]) Claim() {
	for !r.claim.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

// Unclaim releases the serve token acquired by TryClaim or Claim.
func (r *Ring[T]) Unclaim() { r.claim.Store(0) }

// Head returns the slot at the receive cursor. Claim must be held.
func (r *Ring[T]) Head() *Slot[T] { return &r.slots[r.cursor] }

// Drain serves pending slots from the receive cursor in FIFO order until
// the ring runs dry or at least max operations have been served, and
// returns how many operations that was. Claim must be held. serve must
// complete the slot protocol — publish the response and Release — before
// returning, and reports how many operations the slot carried (1 for
// plain slots, the burst size for packed slots); Drain advances the cursor
// after each callback. Bounding the batch in operations rather than slots
// keeps one claim from monopolizing a busy ring regardless of how densely
// senders pack: the server republishes its own liveness (completion
// checks, claim hand-off) every max operations, mirroring ffwd's response
// batching.
func (r *Ring[T]) Drain(max int, serve func(*Slot[T]) int) int {
	served := 0
	for served < max {
		s := &r.slots[r.cursor]
		if !s.Pending() {
			break
		}
		served += serve(s)
		r.cursor++
		if r.cursor == len(r.slots) {
			r.cursor = 0
		}
	}
	return served
}

// Occupancy counts slots currently owned by the server side. It reads
// toggles without claiming the ring, so the result is a racy gauge — exact
// only in quiescence. Used by the observability layer's per-partition
// ring-occupancy metric.
func (r *Ring[T]) Occupancy() int {
	n := 0
	for i := range r.slots {
		if r.slots[i].Pending() {
			n++
		}
	}
	return n
}

// Compile-time layout asserts on the ring header (the payload-dependent
// slot-size asserts live with each payload type: core's transport.go,
// ffwd.go and, for the tests' payload, ring_test.go). Both expressions are
// constants: a non-zero remainder or a negative difference overflows and
// fails the build.
//
// The receive-side state must start on its own stride so a serve-side
// cursor/claim update never invalidates the sender's line...
const _ = -(unsafe.Offsetof(Ring[uint64]{}.cursor) % Stride)

// ...and must sit in exactly the stride after the send cursor's — the
// padding between them is one stride, no more (false-sharing safety
// without wasting a line).
const _ = uint64(unsafe.Offsetof(Ring[uint64]{}.cursor)/Stride) -
	uint64(unsafe.Offsetof(Ring[uint64]{}.sendIdx)/Stride) - 1
