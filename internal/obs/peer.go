package obs

import "fmt"

// PeerMetrics is the plain-data view of one peer process's link, carried
// on Snapshot.Peers. The wire transport keeps the live atomics; the
// runtime snapshots them here so peer-link health shows up in the same
// report as the in-process delegation counters it extends.
type PeerMetrics struct {
	// Peer is the peer's index in the runtime's configuration order.
	Peer int
	// Addr is the peer's dial address.
	Addr string
	// Parts is the number of partitions the peer owns on our behalf.
	Parts int
	// FramesSent / FramesRecvd count request frames written to the peer
	// and response frames read back.
	FramesSent  uint64
	FramesRecvd uint64
	// BytesSent / BytesRecvd count encoded frame bytes in each direction,
	// including length prefixes.
	BytesSent  uint64
	BytesRecvd uint64
	// Ops counts operations carried by the sent frames.
	Ops uint64
	// Timeouts counts operations that resolved with ErrTimeout on this
	// link; Failed counts operations that resolved with ErrClosed (link
	// severed with the operation in flight or unsendable).
	Timeouts uint64
	Failed   uint64
	// Reconnects counts re-established connections after a link failure;
	// FramesDropped counts frames discarded by chaos injection.
	Reconnects    uint64
	FramesDropped uint64
	// Retries counts bursts retransmitted after a link failure (the
	// server's dedup window makes each retransmission safe).
	Retries uint64
	// HeartbeatsSent counts liveness pings sent on idle links;
	// HeartbeatsMissed counts links declared dead by heartbeat silence.
	HeartbeatsSent   uint64
	HeartbeatsMissed uint64
	// Pending is the number of in-flight or retry-queued bursts awaiting
	// a response frame at snapshot time (a gauge; Delta keeps the
	// current value).
	Pending int
}

func (m PeerMetrics) sub(prev PeerMetrics) PeerMetrics {
	return PeerMetrics{
		Peer:             m.Peer,
		Addr:             m.Addr,
		Parts:            m.Parts,
		FramesSent:       m.FramesSent - prev.FramesSent,
		FramesRecvd:      m.FramesRecvd - prev.FramesRecvd,
		BytesSent:        m.BytesSent - prev.BytesSent,
		BytesRecvd:       m.BytesRecvd - prev.BytesRecvd,
		Ops:              m.Ops - prev.Ops,
		Timeouts:         m.Timeouts - prev.Timeouts,
		Failed:           m.Failed - prev.Failed,
		Reconnects:       m.Reconnects - prev.Reconnects,
		FramesDropped:    m.FramesDropped - prev.FramesDropped,
		Retries:          m.Retries - prev.Retries,
		HeartbeatsSent:   m.HeartbeatsSent - prev.HeartbeatsSent,
		HeartbeatsMissed: m.HeartbeatsMissed - prev.HeartbeatsMissed,
		Pending:          m.Pending, // gauge: Delta keeps the current value
	}
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
