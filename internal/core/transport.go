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

// msg is the payload of one delegation slot: a header naming the
// destination partition plus an inline vector of up to burstSize op
// entries. The enclosing ring.Slot's toggle carries ownership of the whole
// burst: the sender fills entries [0, n) and publishes once, the server
// executes them in order and releases once. n, live and tracked are
// sender-private outside the published window (n is read by the server
// between Publish and Release; the others are never server-touched). The trailing pad keeps ring.Slot[msg] a whole number of
// strides so neighbouring slots never false-share (asserted below).
type msg struct {
	part *Partition // destination partition, for Drain and reapAbandoned
	n    int32      // entries packed, written by the sender before Publish
	// live counts packed synchronous entries whose results have not yet
	// been consumed (by Completion.finish or the abandoned-slot reap).
	// Sender-private: every consumer runs on the issuing thread, so the
	// slot-free check is one plain read instead of a per-entry scan.
	live    int32
	tracked bool // sender-private: slot already on the outstanding list
	ops     [burstSize]opEntry
	_       [96]byte
}

// slot and dring are the runtime's instantiations of the shared transport.
type (
	slot  = ring.Slot[msg]
	dring = ring.Ring[msg]
)

// free reports whether every packed entry's result has been consumed, i.e.
// the released slot may be claimed for a new burst. Sender-side only.
//
//dps:noalloc via ExecuteSync
func (m *msg) free() bool { return m.live == 0 }

// Compile-time assertion: the padded slot is a whole number of strides. A
// non-zero remainder makes the negation a negative uintptr constant, which
// does not compile.
const _ = -(unsafe.Sizeof(slot{}) % ring.Stride)

// Exact-size pins, both directions: a burst entry is exactly one stride —
// the unit the packing analysis counts coherence transfers in — and the
// delegation slot is exactly burstSize entry strides plus one for the
// header/toggle/pad, so a record change that silently grows (or shrinks)
// either layout fails the build rather than quietly changing ring cache
// traffic. Either constant goes negative (uintptr overflow) when a size
// moves off its pin.
const (
	_ = ring.Stride - unsafe.Sizeof(opEntry{})
	_ = unsafe.Sizeof(opEntry{}) - ring.Stride

	_ = (burstSize+1)*ring.Stride - unsafe.Sizeof(slot{})
	_ = unsafe.Sizeof(slot{}) - (burstSize+1)*ring.Stride
)

// newRing builds a delegation ring. Fresh slots are sender-owned with no
// live entries, so they are immediately claimable.
func newRing(depth int) *dring {
	return ring.New[msg](depth)
}
