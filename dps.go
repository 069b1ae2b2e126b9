// Package dps is the public API of the Distributed, Delegated Parallel
// Sections runtime — a Go reproduction of "Scalable Data-structures with
// Hierarchical, Distributed Delegation" (Ren & Parmer, Middleware '19).
//
// DPS partitions a data-structure's key namespace across memory localities.
// Operations on locally-owned keys run as plain function calls against the
// locality's shard; operations on remote keys are delegated over per-thread
// message rings to the owning locality, where a peer thread executes them.
// While a thread waits for its own delegations it serves requests delegated
// to its locality, so every thread contributes to data-structure processing
// and no core is reserved as a server.
//
// # Quick start
//
//	rt, err := dps.New(dps.Config{
//		Partitions: 4,
//		Init: func(p *dps.Partition) any {
//			return newMyShard() // one shard per locality
//		},
//	})
//	...
//	th, err := rt.Register()       // per-goroutine handle
//	defer th.Unregister()
//	res := th.ExecuteSync(key, myOp, dps.Args{U: [4]uint64{value}})
//
// Operations (type Op) receive the owning partition, the key, and the
// arguments; DPS guarantees they run on a thread of the owning locality (or
// on the caller for local keys), but provides no synchronization: shards
// accessed by a multi-threaded locality must themselves be concurrent.
//
// See Thread for the full operation API: ExecuteInto with Ready/Result
// (completion records in caller storage, allocating nothing), ExecuteSync,
// ExecuteAsync (fire-and-forget with Flush publication and Drain barriers),
// ExecuteLocal (run read-only ops on the caller), ExecutePartition (one
// partition as a whole), and ExecuteAll (broadcast/range operations with
// user aggregation). Config.OpTimeout bounds every call that returns a
// Result. Consecutive same-partition operations from one thread are
// burst-packed into shared delegation slots; any blocking call (or Flush)
// publishes the open burst.
package dps

import "dps/internal/core"

// Re-exported core types. The implementation lives in internal/core; these
// aliases are the supported public surface.
type (
	// Config parameterizes a Runtime; see core.Config for field docs.
	Config = core.Config
	// Runtime is a DPS instance managing one partitioned data-structure.
	Runtime = core.Runtime
	// Thread is a registered participant; all operations go through it.
	Thread = core.Thread
	// Partition is one namespace partition bound to a locality.
	Partition = core.Partition
	// Completion is the completion record Thread.ExecuteInto fills in.
	Completion = core.Completion
	// Op is a data-structure operation executed by DPS.
	Op = core.Op
	// Args carries an operation's arguments (four words + one reference).
	Args = core.Args
	// Result is an operation's return value.
	Result = core.Result
)

// Observability surface. Runtime.Metrics returns a Snapshot; a Tracer
// installed via Config.Tracer receives per-event callbacks. Together they
// expose the behaviours the paper's evaluation (§5) reasons from.
type (
	// Metrics is the backward-compatible aggregate counter set — exactly
	// Snapshot.Totals under its historical name. Its fields quantify the
	// paper's evaluation axes: LocalExecs/RemoteSends the local-vs-remote
	// operation split (§4.1), AsyncSends fire-and-forget delegation
	// (§4.4), Served the peer-delegation overlap that keeps every core on
	// data-structure work (§4.3), RingFullWaits ring back-pressure
	// (§4.4), and Rescued the abandoned-locality liveness path.
	Metrics = core.Metrics
	// Snapshot is the structured view returned by Runtime.Metrics:
	// Totals (the Metrics aggregate), PerPartition (the §5.2 partition
	// breakdown: who executed, who delegated, queue back-pressure per
	// locality), Latency (delegation-latency histograms, the per-channel
	// queueing delay §5.1 sweeps), and Bursts (slot-occupancy summary of
	// burst packing). Use Snapshot.Delta for interval reporting and
	// Snapshot.String (or JSON marshalling) for tooling.
	Snapshot = core.Snapshot
	// BurstSummary is Snapshot.Bursts: how densely senders packed
	// operations into published delegation slots (ops/slot is the
	// amortization ratio burst packing is judged by).
	BurstSummary = core.BurstSummary
	// PartitionMetrics is one partition's slice of a Snapshot: the same
	// counters attributed to the partition (sends by destination, serves
	// by serving locality), plus Workers and RingOccupancy gauges — the
	// §4.2 ring back-pressure signal.
	PartitionMetrics = core.PartitionMetrics
	// HistogramSummary is one latency histogram: count, p50/p90/p99
	// upper-bound estimates, exact max, and raw log₂ buckets.
	HistogramSummary = core.HistogramSummary
	// LatencySummaries groups the three runtime histograms: LocalExec
	// (the §4.1 plain-function-call path), SyncDelegation
	// (send→completion, §4.2-§4.3), and Served (peer execution, §4.3).
	LatencySummaries = core.LatencySummaries
	// Tracer is the pluggable per-event hook interface installed via
	// Config.Tracer; the default is a no-op that costs one branch.
	Tracer = core.Tracer
	// NopTracer ignores every event; embed it to implement only the
	// hooks of interest.
	NopTracer = core.NopTracer
)

// Robustness surface: one deadline (Config.OpTimeout), orphaned-panic
// routing, and graceful shutdown. See DESIGN.md's "Failure modes & degraded
// operation" for the full failure-mode matrix.
type (
	// PanicInfo describes one recovered delegated-op panic no completion
	// will ever observe, as Config.OnPanic receives it. Orphaned panics are
	// counted and handed to OnPanic (or the standard logger) while the
	// serving thread keeps serving; fail-stop is an OnPanic that panics.
	PanicInfo = core.PanicInfo
	// ShutdownReport summarizes what Runtime.Shutdown accomplished.
	ShutdownReport = core.ShutdownReport
)

// Sentinel errors.
var (
	// ErrClosed is returned by operations on a closed runtime.
	ErrClosed = core.ErrClosed
	// ErrTooManyThreads is returned by Register past Config.MaxThreads.
	ErrTooManyThreads = core.ErrTooManyThreads
	// ErrUnregistered is the panic value raised when a Thread is used
	// after Unregister.
	ErrUnregistered = core.ErrUnregistered
	// ErrTimeout is the Result.Err of a call that outlived
	// Config.OpTimeout, and Runtime.Shutdown's error at its deadline.
	ErrTimeout = core.ErrTimeout
	// ErrPeerDown is returned by operations delegated to a peer process
	// whose link stayed down for the operation's whole retry budget, so
	// the burst was never delivered (every redial failed): zero side
	// effects exist anywhere, so retrying is always safe. A dark peer does
	// not fail ops fast — they queue until the budget runs out, and
	// resolve ErrTimeout instead if the waiter's own bound fires first.
	// Contrast ErrTimeout, which leaves the outcome unknown.
	ErrPeerDown = core.ErrPeerDown
)

// New creates a DPS runtime, the analogue of the paper's create call
// (§3.1): partition count, namespace size and hash function come from cfg,
// and cfg.Init plays the role of ds_init_fn/ds_args.
func New(cfg Config) (*Runtime, error) { return core.New(cfg) }

// Mix64 is the default key hash (a SplitMix64 finalizer); it spreads
// adjacent keys uniformly across partitions.
func Mix64(x uint64) uint64 { return core.Mix64(x) }

// IdentityHash preserves key adjacency so related keys share a partition,
// the "consistent hash" placement choice from §4.1 of the paper.
func IdentityHash(x uint64) uint64 { return core.IdentityHash(x) }

// HashBytes maps an arbitrary byte-string key into the key space using
// 64-bit FNV-1a, for applications whose natural keys are strings (§4.1:
// "DPS first hashes the key into an integer").
func HashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// HashString is HashBytes for strings, without allocating.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
