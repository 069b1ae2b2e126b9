package obs

import "fmt"

// PeerCounters is one peer process's link counter family and its one
// declaration. Instantiated over atomic.Uint64 it is the live block the
// wire transport bumps; over uint64 it is the report embedded in
// PeerMetrics. Load and Delta loop over its words, so a counter is added by
// adding a field here (and, to show it, a line in PeerMetrics.String or the
// memcached stats reply).
type PeerCounters[T counterWord] struct {
	// FramesSent / FramesRecvd count request frames written to the peer
	// and response frames read back.
	FramesSent  T
	FramesRecvd T
	// BytesSent / BytesRecvd count encoded frame bytes in each direction,
	// including length prefixes.
	BytesSent  T
	BytesRecvd T
	// Ops counts operations carried by the sent frames.
	Ops T
	// Timeouts counts operations that resolved with ErrTimeout on this
	// link; Failed counts operations that resolved with ErrClosed (link
	// severed with the operation in flight or unsendable).
	Timeouts T
	Failed   T
	// Reconnects counts re-established connections after a link failure;
	// FramesDropped counts frames discarded by chaos injection.
	Reconnects    T
	FramesDropped T
	// Retries counts bursts retransmitted after a link failure (the
	// server's dedup window makes each retransmission safe).
	Retries T
	// HeartbeatsSent counts liveness pings sent on idle links;
	// HeartbeatsMissed counts links declared dead by heartbeat silence.
	HeartbeatsSent   T
	HeartbeatsMissed T
}

// Load reads a live block into its report form, one atomic load per
// counter; the block as a whole is not read atomically.
func (c *PeerCounters[T]) Load() PeerCounters[uint64] {
	return load[PeerCounters[uint64]](c)
}

// PeerMetrics is the plain-data view of one peer process's link, carried
// on Snapshot.Peers. The wire transport keeps the live block; the runtime
// snapshots it here so peer-link health shows up in the same report as
// the in-process delegation counters it extends.
type PeerMetrics struct {
	// Peer is the peer's index in the runtime's configuration order.
	Peer int
	// Addr is the peer's dial address.
	Addr string
	// Parts is the number of partitions the peer owns on our behalf.
	Parts int
	PeerCounters[uint64]
	// Pending is the number of in-flight or retry-queued bursts awaiting
	// a response frame at snapshot time (a gauge; Delta keeps the
	// current value).
	Pending int
}

// String renders the metrics as one compact report line.
func (m PeerMetrics) String() string {
	return fmt.Sprintf(
		"%d %s parts=%d frames=%d/%d bytes=%d/%d ops=%d timeouts=%d failed=%d reconnects=%d dropped=%d "+
			"retries=%d heartbeats=%d missed=%d pending=%d",
		m.Peer, m.Addr, m.Parts, m.FramesSent, m.FramesRecvd, m.BytesSent, m.BytesRecvd,
		m.Ops, m.Timeouts, m.Failed, m.Reconnects, m.FramesDropped,
		m.Retries, m.HeartbeatsSent, m.HeartbeatsMissed, m.Pending)
}
