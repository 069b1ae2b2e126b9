package ring

import "errors"

// Canonical delegation errors. They live here — the package every transport
// tier builds on — so the cross-process tier (internal/wire) can map link
// failures onto the same sentinels the in-process runtime (internal/core)
// returns, without either importing the other. internal/core re-exports
// them under its historical names.
var (
	// ErrClosed reports that the runtime — or, for the cross-process tier,
	// the link to the peer process — is closed: the operation was not (or
	// can no longer be) executed, and retrying on this channel is futile
	// until it is re-established.
	ErrClosed = errors.New("dps: runtime closed")

	// ErrTimeout reports that a deadline expired before the operation's
	// completion arrived. The operation may still execute later; its result
	// is discarded by the abandon machinery.
	ErrTimeout = errors.New("dps: operation timed out")

	// ErrPeerDown reports that the remote peer's link stayed down for the
	// operation's whole retry budget: every redial failed, so the burst
	// was never written. Unlike ErrClosed — which means this runtime is
	// shutting down — the operation was never delivered, so it is always
	// safe to retry on a caller-chosen schedule. Only the cross-process
	// tier produces it.
	ErrPeerDown = errors.New("dps: peer link down")
)

// StagedOp is one operation in transport-neutral form: the op code
// resolved through the runtime's operation registry (functions cannot
// cross a process boundary), the key, the paper's four word-sized
// arguments, and one optional byte-slice argument (the wire-encodable
// subset of the in-process reference argument).
type StagedOp struct {
	// Part is the destination partition (global partition index).
	Part int
	// Code names the operation in the runtime's op registry.
	Code uint16
	// Key is the operation's key, passed through uninterpreted.
	Key uint64
	// U holds up to four word arguments (Args.U).
	U [4]uint64
	// Data is the optional reference argument (Args.P), restricted to a
	// byte slice so it can cross a process boundary. The transport does
	// not retain it past Flush.
	Data []byte
	// Fire marks a fire-and-forget operation: the sender will not read
	// the result, and the serving side may drop it.
	Fire bool
}
