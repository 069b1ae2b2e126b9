package obs

import (
	"fmt"
	"sync/atomic"
)

// ServerCounters is the network front door's counter family and its one
// declaration. Instantiated over atomic.Uint64 it is the live block
// (ServerStats), bumped on the accept and per-connection serve paths from
// many connection goroutines; over uint64 it is the report (ServerMetrics).
// Snapshot and Delta loop over its words, so a counter is added by adding a
// field here (and, to show it, a line in ServerMetrics.String or the
// memcached stats reply).
type ServerCounters[T counterWord] struct {
	// ConnsAccepted counts connections admitted past the max-conns gate.
	ConnsAccepted T
	// ConnsRejected counts connections refused by the max-conns gate.
	ConnsRejected T
	// CmdGet / CmdSet / CmdDelete / CmdOther count protocol commands by
	// class (get and gets are CmdGet; set and add are CmdSet; version,
	// stats and quit are CmdOther).
	CmdGet    T
	CmdSet    T
	CmdDelete T
	CmdOther  T
	// GetHits / GetMisses split gets by outcome.
	GetHits   T
	GetMisses T
	// ProtocolErrors counts malformed requests answered with ERROR,
	// CLIENT_ERROR or SERVER_ERROR.
	ProtocolErrors T
	// PeerDownErrors counts commands refused because the backing peer's
	// link was down (SERVER_ERROR peer down) — degradation, not protocol
	// failure, so it is tracked apart from ProtocolErrors.
	PeerDownErrors T
	// BytesIn / BytesOut count payload bytes moved over accepted
	// connections.
	BytesIn  T
	BytesOut T
	// Batches counts pipelined batches flushed into the runtime; BatchedOps
	// counts the commands those batches carried. BatchedOps/Batches is the
	// observed pipeline depth — the network-side analogue of ops/slot.
	Batches    T
	BatchedOps T
}

// ServerStats is the front door's live counter block, one per server.
type ServerStats struct {
	ServerCounters[atomic.Uint64]
	// CurrConns is the number of currently open connections (a gauge).
	CurrConns atomic.Int64
}

// Snapshot captures the counters into a plain ServerMetrics value.
func (s *ServerStats) Snapshot() ServerMetrics {
	return ServerMetrics{
		CurrConns:      s.CurrConns.Load(),
		ServerCounters: load[ServerCounters[uint64]](&s.ServerCounters),
	}
}

// ServerMetrics is the plain-data view of a server's activity, carried on
// Snapshot.Server. The zero value means "no server attached".
type ServerMetrics struct {
	// CurrConns is the number of open connections at snapshot time (a
	// gauge; Delta keeps the current value).
	CurrConns int64
	ServerCounters[uint64]
}

// Commands sums the per-class command counters.
func (m ServerMetrics) Commands() uint64 {
	return m.CmdGet + m.CmdSet + m.CmdDelete + m.CmdOther
}

// PipelineDepth is the mean commands per flushed batch (0 with no batches).
func (m ServerMetrics) PipelineDepth() float64 {
	if m.Batches == 0 {
		return 0
	}
	return float64(m.BatchedOps) / float64(m.Batches)
}

// Zero reports whether no server activity was ever recorded (the zero
// value; String omits the server line in that case).
func (m ServerMetrics) Zero() bool {
	return m == ServerMetrics{}
}

// String renders the metrics as two compact report lines.
func (m ServerMetrics) String() string {
	return fmt.Sprintf(
		"conns: curr=%d accepted=%d rejected=%d bytes-in=%d bytes-out=%d\n"+
			"cmds: get=%d (hit=%d miss=%d) set=%d delete=%d other=%d proto-errors=%d peer-down=%d pipeline-depth=%.2f",
		m.CurrConns, m.ConnsAccepted, m.ConnsRejected, m.BytesIn, m.BytesOut,
		m.CmdGet, m.GetHits, m.GetMisses, m.CmdSet, m.CmdDelete, m.CmdOther,
		m.ProtocolErrors, m.PeerDownErrors, m.PipelineDepth())
}
