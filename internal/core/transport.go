package core

import (
	"unsafe"

	"dps/internal/ring"
)

// The delegation transport — padded slots, toggle-bit ownership, the
// single-writer send cursor, the serve-claim token and the per-locality
// doorbell — lives in internal/ring and is shared with the ffwd baseline.
// This file defines the DPS-side payload carried in each slot and the
// aliases that make ring's argument/result records the runtime's own.

// Args carries an operation's arguments. The C implementation packs up to
// four word-sized arguments into the one-cache-line delegation message
// (§4.2); U mirrors that. P is a Go convenience: a single reference argument
// for operations that need to pass structured data (values, byte slices)
// without the unsafe pointer-in-word games the C original plays.
type Args = ring.Args

// Result is an operation's return value: one word (mirroring the message's
// return-value slot), an optional reference result, and an optional error.
type Result = ring.Result

// Op is a data-structure operation executed by DPS. It runs on some thread
// belonging to the locality that owns key — the calling thread if the key is
// local, otherwise a peer thread in the remote locality. DPS provides no
// synchronization (§3.1): if several threads of a locality execute ops
// concurrently, the partition's data-structure must itself be concurrent.
// args points at a record the runtime reuses — a burst entry, or the executing
// thread's own record when the operation runs inline — so it is valid until op
// returns: op may keep what it read out of it, not the pointer.
type Op func(p *Partition, key uint64, args *Args) Result

// burstSize is the operation capacity of one delegation slot. Consecutive
// same-partition operations from one sender are packed into a single slot
// claim (ffwd's insight, §5.1 of that paper: batching requests per
// coherence transfer is where delegation wins its throughput edge), so a
// dense asynchronous stream pays one toggle round-trip per burstSize ops
// instead of one per op.
const burstSize = 4

// opEntry is one operation's request/completion record within a burst: as
// in §4.2, a single record carries both the request (op, key, args) and
// the completion (result, captured panic). Entries are sized to exactly
// one stride (asserted below), so a burst of n ops moves n request lines
// plus the header/toggle lines — strictly fewer coherence transfers than n
// single-op slots.
type opEntry struct {
	op       Op
	key      uint64
	args     Args
	res      Result
	panicVal any  // recovered panic from op, re-raised at the awaiting side
	fire     bool // fire-and-forget: no completion record will read res/panicVal
	_        [6]byte
}

// msg is the payload of one delegation slot: a header plus an inline vector
// of up to burstSize op entries. The enclosing ring.Slot's toggle carries
// ownership of the whole burst: the sender fills entries [0, n) and publishes
// once, the server executes them in order and releases once. The server reads
// only n, between Publish and Release; the other header fields are
// sender-private and may be read and written while the slot is published, so
// the sender's rings themselves are its record of what it still owes (Drain,
// reap). The trailing pad keeps ring.Slot[msg] a whole number of strides so
// neighbouring slots never false-share (asserted below).
type msg struct {
	n int32 // entries packed, written by the sender before Publish
	// live counts packed synchronous entries whose results have not yet
	// been consumed (by Completion.finish or reap). Sender-private: every
	// consumer runs on the issuing thread, so the slot-free check is one
	// plain read instead of a per-entry scan.
	live int32
	// fire marks a burst carrying a fire-and-forget entry, one the Drain
	// barrier waits out. Set by fillEntry, cleared at claim.
	fire bool
	// dead has bit i set while entry i belongs to a completion given up on
	// (Completion.abandon): its result is still owed a reap. Clear at claim,
	// since a slot is claimable only once its dead entries are reaped.
	dead uint8
	// open marks the ring's open burst: its newest claimed slot, not yet
	// published, which the sender's next operations toward the partition
	// join. Set at claim (Thread.pack), cleared at publish.
	open bool
	// The header is padded to 24 bytes. Entries then start where each one's
	// 16-byte panicVal begins a cache line; at offset 16 it straddles two, and
	// a synchronous round trip measured 4–5 % slower
	// (BenchmarkDelegation/sync, BenchmarkDelegationIdleSenders/idle0).
	_   [8]byte
	ops [burstSize]opEntry
	_   [96]byte
}

// slot and dring are the runtime's instantiations of the shared transport.
type (
	slot  = ring.Slot[msg]
	dring = ring.Ring[msg]
)

// free reports whether every packed entry's result has been consumed, i.e.
// the released slot may be claimed for a new burst. Sender-side only.
func (m *msg) free() bool { return m.live == 0 }

// Compile-time assertion: the padded slot is a whole number of strides. A
// non-zero remainder makes the negation a negative uintptr constant, which
// does not compile.
const _ = -(unsafe.Sizeof(slot{}) % ring.Stride)

// Exact-size pins, both directions: a burst entry is exactly one stride —
// the unit the packing analysis counts coherence transfers in — and the
// delegation slot is exactly burstSize entry strides plus one for the
// header/toggle/pad, and the entries start at offset 24 (see msg), so a
// record change that silently grows (or shrinks) either layout or moves the
// entries fails the build rather than quietly changing ring cache traffic.
// Either constant of a pair goes negative (uintptr overflow) when a figure
// moves off its pin.
const (
	_ = ring.Stride - unsafe.Sizeof(opEntry{})
	_ = unsafe.Sizeof(opEntry{}) - ring.Stride

	_ = (burstSize+1)*ring.Stride - unsafe.Sizeof(slot{})
	_ = unsafe.Sizeof(slot{}) - (burstSize+1)*ring.Stride

	_ = unsafe.Offsetof(msg{}.ops) - 24
	_ = 24 - unsafe.Offsetof(msg{}.ops)
)

// newRing builds a delegation ring. Fresh slots are sender-owned with no
// live entries, so they are immediately claimable.
func newRing(depth int) *dring {
	return ring.New[msg](depth)
}
