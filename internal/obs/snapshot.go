package obs

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"
)

// Totals is the runtime's counter family and its one declaration: each
// field is a counter, the recorder's Counter index for it is derived from
// its offset, and the roll-ups and Delta loop over the struct's words, so a
// counter is added by adding a field here (and, to show it, a line in
// Snapshot.String). The counters quantify the behaviours the paper's
// evaluation discusses: the local/remote split (§4.1), peer-served work
// (§4.3) and ring back-pressure under asynchronous execution (§4.4).
// Totals is also the backward-compatible Metrics surface.
//
// Every field must be a uint64. DedupReplays is the one the recorder does
// not count — Runtime.Metrics fills it — and its recorder block keeps an
// unused slot for it, inside the block's padding.
type Totals struct {
	// LocalExecs counts operations executed inline on the calling thread
	// (local key, empty-locality fallback, or explicit local execution).
	LocalExecs uint64
	// RemoteSends counts synchronous delegations to remote localities.
	RemoteSends uint64
	// AsyncSends counts fire-and-forget delegations (§4.4).
	AsyncSends uint64
	// Served counts delegated requests executed on behalf of peers (§4.3).
	Served uint64
	// RingFullWaits counts send attempts that found the destination ring
	// full and had to serve/yield instead (§4.4 back-pressure).
	RingFullWaits uint64
	// Rescued counts pending requests executed by their sender off its own
	// ring: the destination locality turned unattended — every thread
	// parked or idle, or none left — after they were staged, or the stall
	// detector forced it.
	Rescued uint64
	// Stalls counts stall-detector trips: a waiter observed the destination
	// partition make no serving progress across a full detection window
	// while its own request stayed pending (the degraded-mode signal).
	Stalls uint64
	// Panics counts delegated operations that panicked while executing,
	// whatever the panic's eventual routing (re-raise at the awaiter, the
	// panic handler, or the crash policy).
	Panics uint64
	// Abandoned counts delegated requests their sender gave up on —
	// deadline expiry or runtime shutdown — whose results, if any, were
	// discarded.
	Abandoned uint64
	// RingScansSkipped counts sender rings a doorbell-driven serve pass did
	// NOT visit (registered rings minus rung rings). It is the work the
	// doorbell saves: the pre-doorbell loop polled every one of these.
	RingScansSkipped uint64
	// DoorbellWakes counts sender rings visited because their doorbell bit
	// was set (including re-armed bits for rings left with work behind).
	DoorbellWakes uint64
	// RemoteOps counts operations delegated across a process boundary to a
	// peer-owned partition (the wire tier), attributed to the destination
	// partition. Disjoint from RemoteSends/AsyncSends, which count
	// in-process ring delegations only.
	RemoteOps uint64
	// RemoteBytes counts the encoded request-entry bytes staged toward
	// peer-owned partitions: each entry's fixed part plus its data. Frame
	// headers are not counted, and the peer accounts its responses.
	RemoteBytes uint64
	// PeerStalls counts wire-tier waits that crossed a stall window with no
	// completion frame arriving — the cross-process analogue of Stalls,
	// where the remedy is the deadline machinery rather than rescue (a
	// sender cannot reach into a peer process's shard).
	PeerStalls uint64
	// DedupReplays counts retransmitted bursts this runtime's peer servers
	// answered from their dedup window instead of re-executing — each one
	// a duplicate side effect the window prevented. Runtime.Metrics reads
	// it from the wire servers into Totals only; it is zero per partition.
	DedupReplays uint64
	// Parks counts waiter park episodes: an idle thread armed its park
	// slot and blocked instead of sleeping a blind quantum, attributed to
	// the thread's own locality. Parks minus Wakes approximates how often
	// waiters ran to their park timeout (the rescue/fallback cadence).
	Parks uint64
	// Wakes counts direct park wakeups delivered — a doorbell Set picking
	// a parked locality thread, or a server waking a sender whose ring it
	// drained — attributed to the partition whose event caused the wake. An
	// operation toward a locality whose every thread is parked wakes none:
	// it runs on its sender (UnattendedExecs).
	Wakes uint64
	// ArenaAcquires and ArenaFallbacks counted the payloads that did and
	// did not find a buffer in a per-locality payload arena. The arenas are
	// gone and nothing counts these any more; they stay, always 0, because
	// the benchmark's mcd.arena_fallback_share reads them.
	ArenaAcquires  uint64
	ArenaFallbacks uint64
	// UnattendedExecs counts operations toward another locality that ran
	// inline on their sender at issue, because every thread there was
	// parked or idle (or none was left), attributed to the destination
	// partition. It is no serving progress: the stall detector's clock
	// leaves it out, so inline work never masks a stalled ring.
	UnattendedExecs uint64
}

// counterWord is the word a counter family is instantiated over: uint64
// for the report a Snapshot carries, atomic.Uint64 for the live block
// recording threads add to. Both are 8 bytes, so either instance of a
// family is a sequence of words the helpers below can loop over.
type counterWord interface {
	uint64 | atomic.Uint64
}

// words views s, a struct of uint64 fields only (Totals or a family's
// report instance), as a slice of its words.
func words[S any](s *S) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(s)), unsafe.Sizeof(*s)/8)
}

// load reads the live block of a family (an instance over atomic.Uint64)
// into its report instance R, one atomic load per counter; the block as a
// whole is not read atomically.
func load[R, L any](live *L) R {
	var r R
	dst := words(&r)
	src := unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(live)), len(dst))
	for i := range dst {
		dst[i] = src[i].Load()
	}
	return r
}

// sub returns cur − prev counter by counter.
func sub[S any](cur, prev S) S {
	d := words(&cur)
	for i, n := range words(&prev) {
		d[i] -= n
	}
	return cur
}

// BurstSummary aggregates the burst-occupancy histogram: how many
// operations each published delegation slot carried. OpsPerSlot is the
// amortization ratio the burst-packing optimization is judged by — 1.0
// means no packing, burstSize means every slot went out full.
type BurstSummary struct {
	// Buckets[n] counts slots published carrying exactly n operations
	// (bucket 0 is unused; the last bucket absorbs larger bursts).
	Buckets [BurstBuckets]uint64
	// Slots is the total number of slots published.
	Slots uint64
	// Ops is the total number of operations those slots carried.
	Ops uint64
}

// OpsPerSlot returns the mean operations per published slot (0 with no
// slots published).
func (bs BurstSummary) OpsPerSlot() float64 {
	if bs.Slots == 0 {
		return 0
	}
	return float64(bs.Ops) / float64(bs.Slots)
}

// Delta returns the burst activity recorded since prev.
func (bs BurstSummary) Delta(prev BurstSummary) BurstSummary {
	var d BurstSummary
	for i := range d.Buckets {
		d.Buckets[i] = bs.Buckets[i] - prev.Buckets[i]
	}
	d.Slots = bs.Slots - prev.Slots
	d.Ops = bs.Ops - prev.Ops
	return d
}

// String renders the summary as "slots=… ops=… ops/slot=…".
func (bs BurstSummary) String() string {
	return fmt.Sprintf("slots=%d ops=%d ops/slot=%.2f", bs.Slots, bs.Ops, bs.OpsPerSlot())
}

// PartitionMetrics is one partition's slice of a Snapshot. The embedded
// counters are attributed to the partition as described on Counter: sends
// by destination, local execs by executing shard, serves by the serving
// locality.
type PartitionMetrics struct {
	// Partition is the partition index in [0, Partitions).
	Partition int
	Totals
	// Workers is the number of threads registered to the partition's
	// locality at snapshot time (a gauge; Delta keeps the current value).
	Workers int
	// RingOccupancy is the number of in-flight delegation slots sitting in
	// the partition's rings at snapshot time, summed over sender threads
	// (a gauge; Delta keeps the current value). Each slot carries up to a
	// burst of operations; a sender's open (unpublished) burst is not in
	// flight yet. Sustained occupancy near workers × ring depth means the
	// locality is the bottleneck.
	RingOccupancy int
}

// HistogramSummary is one latency histogram's aggregate: total count,
// upper-bound percentile estimates, the exact maximum, and the raw
// log₂ bucket counts (kept so Delta can recompute percentiles for an
// interval). Percentiles are conservative: each reports the inclusive
// upper bound of the bucket the quantile falls in, clamped to Max.
type HistogramSummary struct {
	// Count is the number of recorded observations.
	Count uint64
	// P50, P90 and P99 are upper-bound estimates of the quantiles.
	P50 time.Duration
	P90 time.Duration
	P99 time.Duration
	// Max is the largest observation ever recorded. After Delta it still
	// spans the whole runtime lifetime, not only the interval.
	Max time.Duration
	// Buckets are the raw log₂-spaced bucket counts (see BucketOf).
	Buckets [NumBuckets]uint64
}

func summarize(buckets [NumBuckets]uint64, max time.Duration) HistogramSummary {
	h := HistogramSummary{Max: max, Buckets: buckets}
	for _, c := range buckets {
		h.Count += c
	}
	h.P50 = percentile(&buckets, h.Count, 0.50, max)
	h.P90 = percentile(&buckets, h.Count, 0.90, max)
	h.P99 = percentile(&buckets, h.Count, 0.99, max)
	return h
}

// percentile returns the upper bound of the bucket holding the q-quantile
// observation, clamped to the recorded maximum.
func percentile(buckets *[NumBuckets]uint64, total uint64, q float64, max time.Duration) time.Duration {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += buckets[i]
		if cum >= rank {
			ub := BucketUpper(i)
			if ub > max {
				ub = max
			}
			return ub
		}
	}
	return max
}

// Delta returns the summary for the observations recorded since prev was
// taken (h and prev must come from the same histogram, h later).
func (h HistogramSummary) Delta(prev HistogramSummary) HistogramSummary {
	var buckets [NumBuckets]uint64
	for i := range buckets {
		buckets[i] = h.Buckets[i] - prev.Buckets[i]
	}
	return summarize(buckets, h.Max)
}

// LatencySummaries groups the runtime's three latency histograms.
type LatencySummaries struct {
	// LocalExec is the latency of inline-executed operations (§4.1).
	LocalExec HistogramSummary
	// SyncDelegation is the send→completion latency of synchronous
	// delegations (§4.2-§4.3) — the per-channel queueing delay delegation
	// designs live or die on.
	SyncDelegation HistogramSummary
	// Served is the execution time of requests served for peers (§4.3),
	// including those a sender executed off its own ring (Rescued).
	Served HistogramSummary
}

// Snapshot is a structured view of runtime activity: aggregate counters,
// a per-partition breakdown, and latency histogram summaries. It is plain
// data — safe to copy, compare across time with Delta, and marshal to JSON
// (durations marshal as integer nanoseconds).
type Snapshot struct {
	// Totals aggregates the counters over all threads and partitions; it
	// is the backward-compatible Metrics surface.
	Totals Totals
	// PerPartition breaks the counters down by partition and adds the
	// per-locality gauges (workers, ring occupancy).
	PerPartition []PartitionMetrics
	// Latency summarizes the local-exec, sync-delegation and served
	// histograms.
	Latency LatencySummaries
	// Bursts summarizes burst occupancy: how densely senders packed
	// operations into published delegation slots.
	Bursts BurstSummary
	// Server carries the network front door's counters when a server
	// fronts the runtime (internal/server fills it in Metrics); the zero
	// value otherwise.
	Server ServerMetrics
	// Peers carries one entry per configured peer process (the wire tier's
	// link-level counters, filled by Runtime.Metrics from the transport);
	// nil when the runtime owns every partition locally.
	Peers []PeerMetrics
}

// Delta returns the activity recorded between prev and s (prev must be an
// earlier snapshot of the same runtime). Counters and histogram counts are
// subtracted; gauges (Workers, RingOccupancy) and histogram maxima keep
// s's current values.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := s
	d.Totals = sub(s.Totals, prev.Totals)
	d.PerPartition = make([]PartitionMetrics, len(s.PerPartition))
	copy(d.PerPartition, s.PerPartition)
	for i := range d.PerPartition {
		if i < len(prev.PerPartition) {
			d.PerPartition[i].Totals = sub(s.PerPartition[i].Totals, prev.PerPartition[i].Totals)
		}
	}
	d.Latency.LocalExec = s.Latency.LocalExec.Delta(prev.Latency.LocalExec)
	d.Latency.SyncDelegation = s.Latency.SyncDelegation.Delta(prev.Latency.SyncDelegation)
	d.Latency.Served = s.Latency.Served.Delta(prev.Latency.Served)
	d.Bursts = s.Bursts.Delta(prev.Bursts)
	d.Server.ServerCounters = sub(s.Server.ServerCounters, prev.Server.ServerCounters)
	d.Peers = append([]PeerMetrics(nil), s.Peers...)
	for i := range d.Peers {
		if i < len(prev.Peers) {
			d.Peers[i].PeerCounters = sub(s.Peers[i].PeerCounters, prev.Peers[i].PeerCounters)
		}
	}
	return d
}

// Executed returns the number of operations partition p's shard actually
// executed: inline locals plus peer serves plus rescues plus operations run
// inline toward an unattended locality.
func (pm PartitionMetrics) Executed() uint64 {
	return pm.LocalExecs + pm.Served + pm.Rescued + pm.UnattendedExecs
}

// Imbalance reports how unevenly executed work spreads over partitions, as
// max/mean of per-partition executed operations. 1.0 is perfectly balanced;
// 0 means no work was recorded.
func (s Snapshot) Imbalance() float64 {
	if len(s.PerPartition) == 0 {
		return 0
	}
	var sum, max uint64
	for _, pm := range s.PerPartition {
		e := pm.Executed()
		sum += e
		if e > max {
			max = e
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.PerPartition))
	return float64(max) / mean
}

// String renders the snapshot as a small human-readable report: totals,
// the three latency summaries, and a per-partition table.
func (s Snapshot) String() string {
	var b strings.Builder
	t := s.Totals
	fmt.Fprintf(&b, "totals: local=%d remote=%d async=%d served=%d ringfull=%d rescued=%d unattended=%d stalls=%d panics=%d abandoned=%d\n",
		t.LocalExecs, t.RemoteSends, t.AsyncSends, t.Served, t.RingFullWaits, t.Rescued, t.UnattendedExecs, t.Stalls, t.Panics, t.Abandoned)
	fmt.Fprintf(&b, "serving: wakes=%d scans-skipped=%d parks=%d park-wakes=%d\n",
		t.DoorbellWakes, t.RingScansSkipped, t.Parks, t.Wakes)
	if t.ArenaAcquires+t.ArenaFallbacks > 0 {
		fmt.Fprintf(&b, "arena: acquires=%d fallbacks=%d\n", t.ArenaAcquires, t.ArenaFallbacks)
	}
	fmt.Fprintf(&b, "bursts: %s\n", s.Bursts)
	if t.RemoteOps+t.RemoteBytes+t.PeerStalls+t.DedupReplays > 0 || len(s.Peers) > 0 {
		fmt.Fprintf(&b, "wire: remote-ops=%d remote-bytes=%d peer-stalls=%d dedup-replays=%d\n",
			t.RemoteOps, t.RemoteBytes, t.PeerStalls, t.DedupReplays)
	}
	for _, pm := range s.Peers {
		fmt.Fprintf(&b, "peer %s\n", pm)
	}
	if !s.Server.Zero() {
		fmt.Fprintf(&b, "server %s\n", s.Server)
	}
	fmt.Fprintf(&b, "latency sync-delegation: %s\n", s.Latency.SyncDelegation)
	fmt.Fprintf(&b, "latency local-exec:      %s\n", s.Latency.LocalExec)
	fmt.Fprintf(&b, "latency served:          %s\n", s.Latency.Served)
	fmt.Fprintf(&b, "%4s %7s %9s %9s %9s %9s %9s %9s %9s\n",
		"part", "workers", "local", "remote", "async", "served", "ringfull", "rescued", "occupancy")
	for _, pm := range s.PerPartition {
		fmt.Fprintf(&b, "%4d %7d %9d %9d %9d %9d %9d %9d %9d\n",
			pm.Partition, pm.Workers, pm.LocalExecs, pm.RemoteSends, pm.AsyncSends,
			pm.Served, pm.RingFullWaits, pm.Rescued, pm.RingOccupancy)
	}
	fmt.Fprintf(&b, "partition imbalance (executed, max/mean): %.2f", s.Imbalance())
	return b.String()
}

// String renders the summary as "count=… p50=… p90=… p99=… max=…".
func (h HistogramSummary) String() string {
	return fmt.Sprintf("count=%d p50=%v p90=%v p99=%v max=%v", h.Count, h.P50, h.P90, h.P99, h.Max)
}
