// Package obs is the DPS runtime's observability layer: padded
// per-(thread, partition) event counters, log-bucketed latency histograms,
// and the pluggable Tracer hook interface. internal/core records into it on
// every operation; Runtime.Metrics assembles its contents into a Snapshot.
//
// The package exists because the paper's evaluation (§5) reasons entirely
// from behaviours invisible to a throughput number: the local/remote
// operation split (§4.1), peer-served work (§4.3), and ring back-pressure
// under asynchronous execution (§4.4). Delegation designs live or die on
// per-channel queueing delay, so the recording paths are built to sit on
// the per-operation hot path: no allocation, no locks, one atomic add per
// event into a counter block no other thread writes.
package obs

//dps:check atomicmix spinloop

import (
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"

	"dps/internal/ring"
)

// Counter indexes one event counter within a (thread, partition) block.
type Counter int

// Runtime event counters. Each is attributed to a partition: sends (remote,
// async, ring-full, rescued) to the destination partition, local execs to
// the partition whose shard ran the operation, serves to the serving
// thread's own locality.
const (
	// LocalExec counts operations executed inline on the calling thread
	// (local key, empty-locality fallback, or explicit local execution).
	LocalExec Counter = iota
	// RemoteSend counts synchronous delegations to remote localities.
	RemoteSend
	// AsyncSend counts fire-and-forget delegations (§4.4).
	AsyncSend
	// Served counts delegated requests executed on behalf of peers (§4.3).
	Served
	// RingFull counts send attempts that found the destination ring full
	// and had to serve/yield instead (§4.4 back-pressure).
	RingFull
	// Rescued counts pending requests executed by their sender after the
	// destination locality emptied (the liveness path).
	Rescued
	// Stalls counts stall-detector trips: a waiter observed the destination
	// partition make no serving progress across a full detection window
	// while its own request stayed pending (the degraded-mode signal).
	Stalls
	// Panics counts delegated operations that panicked while executing,
	// whatever the panic's eventual routing (re-raise at the awaiter, the
	// panic handler, or the crash policy).
	Panics
	// Abandoned counts delegated requests their sender gave up on —
	// deadline expiry or runtime shutdown — whose results, if any, were
	// discarded.
	Abandoned
	// RingScansSkipped counts sender rings a doorbell-driven serve pass did
	// NOT visit (registered rings minus rung rings). It is the work the
	// doorbell saves: the pre-doorbell loop polled every one of these.
	RingScansSkipped
	// DoorbellWakes counts sender rings visited because their doorbell bit
	// was set (including re-armed bits for rings left with work behind).
	DoorbellWakes
	// RemoteOps counts operations delegated across a process boundary to a
	// peer-owned partition (the wire tier), attributed to the destination
	// partition. Disjoint from RemoteSend/AsyncSend, which count in-process
	// ring delegations only.
	RemoteOps
	// RemoteBytes counts encoded frame bytes written toward peer-owned
	// partitions (request frames only; the peer accounts its responses).
	RemoteBytes
	// PeerStalls counts wire-tier waits that crossed a stall window with no
	// completion frame arriving — the cross-process analogue of Stalls,
	// where the remedy is the deadline machinery rather than rescue (a
	// sender cannot reach into a peer process's shard).
	PeerStalls
	// Parks counts waiter park episodes: an idle thread armed its park
	// slot and blocked instead of sleeping a blind quantum, attributed to
	// the thread's own locality. Parks minus Wakes approximates how often
	// waiters ran to their park timeout (the rescue/fallback cadence).
	Parks
	// Wakes counts direct park wakeups delivered — a doorbell Set picking
	// a parked locality thread, or a server waking a sender whose ring it
	// drained — attributed to the partition whose event caused the wake.
	Wakes
	// ArenaAcquires counts delegated payloads placed in the destination
	// locality's arena pool instead of the shared GC heap.
	ArenaAcquires
	// ArenaFallbacks counts payloads that wanted an arena buffer but fell
	// back to the heap (pool empty or payload oversized). A high ratio to
	// ArenaAcquires means core.DefaultArenaBufs is undersized for the
	// in-flight window.
	ArenaFallbacks
	// NumCounters is the number of counters per block.
	NumCounters
)

// blockStride is the unit the counter block is padded to: two cache lines,
// covering the spatial-prefetcher pairing on common x86 parts.
const blockStride = 128

// block is the counter set for one (thread, partition) pair. Exactly one
// thread writes a given block, so the only coherence traffic is snapshot
// reads; padding to a whole number of strides keeps neighbouring blocks
// from false-sharing.
//
//dps:cacheline=128
type block struct {
	c [NumCounters]atomic.Uint64
	_ [blockPad]byte
}

// blockPad is derived from NumCounters directly, so the block stays a whole
// number of strides no matter how many counters are added.
const blockPad = (blockStride - (8*int(NumCounters))%blockStride) % blockStride

// Compile-time assertions: the padded structs are whole numbers of strides.
// A non-zero remainder makes the negation a negative uintptr constant,
// which does not compile.
const (
	_ = -(unsafe.Sizeof(block{}) % blockStride)
	_ = -(unsafe.Sizeof(histShard{}) % blockStride)
)

// The counter-block stride and the delegation transport's slot stride are
// the same layout decision (two x86 cache lines, one prefetch pair) made in
// two packages; pin them equal so one cannot drift from the other. Either
// term overflows uint when they differ.
const _ = uint(blockStride-ring.Stride) + uint(ring.Stride-blockStride)

// Hist names one of the runtime's latency histograms.
type Hist int

const (
	// HistLocalExec is the latency of operations executed inline on the
	// calling thread (the plain-function-call path, §4.1).
	HistLocalExec Hist = iota
	// HistSyncDelegation is the send→completion latency of synchronous
	// delegations: enqueue (including any ring-full wait), remote queueing,
	// remote execution, and completion pickup (§4.2-§4.3).
	HistSyncDelegation
	// HistServed is the execution time of delegated requests run on behalf
	// of peers, including requests executed through the rescue path.
	HistServed
	// NumHists is the number of histograms per thread.
	NumHists
)

// NumBuckets is the number of log₂-spaced latency buckets. Bucket 0 holds
// sub-nanosecond observations; bucket i ≥ 1 holds durations in
// [2^(i-1), 2^i) ns; the last bucket additionally absorbs everything
// larger (2^38 ns ≈ 4.6 min).
const NumBuckets = 40

// histShard is one thread's shard of one histogram, padded like the
// counter blocks so recording threads never false-share.
//
//dps:cacheline=128
type histShard struct {
	buckets [NumBuckets]atomic.Uint64
	max     atomic.Uint64
	_       [histPad]byte
}

const histPad = (blockStride - (8*(NumBuckets+1))%blockStride) % blockStride

// BurstBuckets sizes the burst-occupancy histogram: bucket n counts slots
// published carrying exactly n operations (bucket 0 is unused; the last
// bucket absorbs larger bursts if the transport's burst capacity ever
// exceeds it). Sized so the shard's bucket array is half a stride and the
// padded shard exactly one.
const BurstBuckets = 8

// burstShard is one thread's shard of the burst-occupancy histogram,
// padded like the counter blocks so publishing threads never false-share.
//
//dps:cacheline=128
type burstShard struct {
	buckets [BurstBuckets]atomic.Uint64
	_       [blockStride - 8*BurstBuckets]byte
}

// Compile-time assert: a burst shard is exactly one stride.
const (
	_ = blockStride - unsafe.Sizeof(burstShard{})
	_ = unsafe.Sizeof(burstShard{}) - blockStride
)

// BucketOf returns the histogram bucket index for a duration.
func BucketOf(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket i — the value
// reported for a percentile that falls in the bucket. The last bucket is
// open-ended; its nominal bound is returned (summaries clamp to the
// recorded maximum).
func BucketUpper(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets {
		i = NumBuckets
	}
	return time.Duration(uint64(1)<<uint(i) - 1)
}

// Recorder is the per-runtime recording surface: maxThreads × partitions
// counter blocks and maxThreads × NumHists histogram shards, both indexed
// flat so the hot path is one multiply-add away from its block.
//
// The recorder also owns the runtime's clock discipline: hot paths obtain
// timestamps only through Start/Since, so one stamp per operation (per
// side) feeds both the histogram observation and any Tracer callback, and
// disabling timing removes every clock read from the delegation fast path
// in one place.
type Recorder struct {
	parts   int
	threads int
	timed   bool
	blocks  []block
	hists   []histShard
	bursts  []burstShard
}

// NewRecorder sizes the recording arrays for a runtime with the given
// thread and partition bounds. Timing is enabled; SetTiming turns it off.
func NewRecorder(maxThreads, partitions int) *Recorder {
	return &Recorder{
		parts:   partitions,
		threads: maxThreads,
		timed:   true,
		blocks:  make([]block, maxThreads*partitions),
		hists:   make([]histShard, maxThreads*int(NumHists)),
		bursts:  make([]burstShard, maxThreads),
	}
}

// SetTiming enables or disables latency measurement. When disabled, Start
// and Since cost nothing and read no clock, and Observe is a no-op, so the
// histograms stay empty. Call before the recorder is shared with recording
// threads; it is not synchronized with them.
func (r *Recorder) SetTiming(enabled bool) { r.timed = enabled }

// Stamp is an opaque clock reading captured by Recorder.Start and consumed
// by Recorder.Since. The zero Stamp is what Start returns with timing
// disabled.
type Stamp struct{ t time.Time }

// Start captures the clock for a latency measurement — the single time
// source consulted per operation side. With timing disabled it returns the
// zero Stamp without reading the clock.
//
//dps:noalloc via ExecuteSync
func (r *Recorder) Start() Stamp {
	if !r.timed {
		return Stamp{}
	}
	return Stamp{t: time.Now()}
}

// Since returns the elapsed time from a Start stamp, or 0 with timing
// disabled (the duration then flows to Tracer hooks as zero).
//
//dps:noalloc via ExecuteSync
func (r *Recorder) Since(s Stamp) time.Duration {
	if !r.timed {
		return 0
	}
	return time.Since(s.t)
}

// Add adds n to counter c of thread tid's block for partition part.
//
//dps:noalloc
func (r *Recorder) Add(tid, part int, c Counter, n uint64) {
	r.blocks[tid*r.parts+part].c[c].Add(n)
}

// PartitionProgress returns the number of delegated requests partition
// part's rings have had executed so far (peer serves plus rescues), summed
// over threads. It is the monotone progress clock the stall detector
// samples: a waiter whose request stays pending while this value holds
// still across a detection window knows nobody is serving the partition.
// The scan touches one counter block per thread, so it is meant for the
// idle slow path, not the per-operation hot path.
func (r *Recorder) PartitionProgress(part int) uint64 {
	var n uint64
	for tid := 0; tid < r.threads; tid++ {
		b := &r.blocks[tid*r.parts+part]
		n += b.c[Served].Load() + b.c[Rescued].Load()
	}
	return n
}

// Observe records one duration into thread tid's shard of histogram h.
// It is a no-op with timing disabled, keeping histogram counts consistent
// with the absence of measurements.
//
//dps:noalloc
func (r *Recorder) Observe(tid int, h Hist, d time.Duration) {
	if !r.timed {
		return
	}
	s := &r.hists[tid*int(NumHists)+int(h)]
	s.buckets[BucketOf(d)].Add(1)
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d.Nanoseconds())
	}
	//dps:spin-ok lock-free max update: each retry means another writer advanced max, so the loop is contention-bounded
	for {
		old := s.max.Load()
		if ns <= old || s.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// ObserveBurst records that thread tid published a delegation slot packing
// n operations. Unlike Observe it is not gated on timing — burst occupancy
// is a count, not a latency, and the ops/slot ratio is the number the
// packing optimization is judged by.
//
//dps:noalloc
func (r *Recorder) ObserveBurst(tid, n int) {
	if n >= BurstBuckets {
		n = BurstBuckets - 1
	}
	r.bursts[tid].buckets[n].Add(1)
}

// Snapshot aggregates the recorder's counters and histograms. The caller
// (Runtime.Metrics) fills in the gauge fields the recorder cannot know
// (workers, ring occupancy).
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{PerPartition: make([]PartitionMetrics, r.parts)}
	for part := range s.PerPartition {
		s.PerPartition[part].Partition = part
	}
	for tid := 0; tid < r.threads; tid++ {
		for part := 0; part < r.parts; part++ {
			b := &r.blocks[tid*r.parts+part]
			pm := &s.PerPartition[part]
			pm.LocalExecs += b.c[LocalExec].Load()
			pm.RemoteSends += b.c[RemoteSend].Load()
			pm.AsyncSends += b.c[AsyncSend].Load()
			pm.Served += b.c[Served].Load()
			pm.RingFullWaits += b.c[RingFull].Load()
			pm.Rescued += b.c[Rescued].Load()
			pm.Stalls += b.c[Stalls].Load()
			pm.Panics += b.c[Panics].Load()
			pm.Abandoned += b.c[Abandoned].Load()
			pm.RingScansSkipped += b.c[RingScansSkipped].Load()
			pm.DoorbellWakes += b.c[DoorbellWakes].Load()
			pm.RemoteOps += b.c[RemoteOps].Load()
			pm.RemoteBytes += b.c[RemoteBytes].Load()
			pm.PeerStalls += b.c[PeerStalls].Load()
			pm.Parks += b.c[Parks].Load()
			pm.Wakes += b.c[Wakes].Load()
			pm.ArenaAcquires += b.c[ArenaAcquires].Load()
			pm.ArenaFallbacks += b.c[ArenaFallbacks].Load()
		}
	}
	for _, pm := range s.PerPartition {
		s.Totals.LocalExecs += pm.LocalExecs
		s.Totals.RemoteSends += pm.RemoteSends
		s.Totals.AsyncSends += pm.AsyncSends
		s.Totals.Served += pm.Served
		s.Totals.RingFullWaits += pm.RingFullWaits
		s.Totals.Rescued += pm.Rescued
		s.Totals.Stalls += pm.Stalls
		s.Totals.Panics += pm.Panics
		s.Totals.Abandoned += pm.Abandoned
		s.Totals.RingScansSkipped += pm.RingScansSkipped
		s.Totals.DoorbellWakes += pm.DoorbellWakes
		s.Totals.RemoteOps += pm.RemoteOps
		s.Totals.RemoteBytes += pm.RemoteBytes
		s.Totals.PeerStalls += pm.PeerStalls
		s.Totals.Parks += pm.Parks
		s.Totals.Wakes += pm.Wakes
		s.Totals.ArenaAcquires += pm.ArenaAcquires
		s.Totals.ArenaFallbacks += pm.ArenaFallbacks
	}
	s.Latency.LocalExec = r.summary(HistLocalExec)
	s.Latency.SyncDelegation = r.summary(HistSyncDelegation)
	s.Latency.Served = r.summary(HistServed)
	for tid := 0; tid < r.threads; tid++ {
		sh := &r.bursts[tid]
		for n := 1; n < BurstBuckets; n++ {
			c := sh.buckets[n].Load()
			s.Bursts.Buckets[n] += c
			s.Bursts.Slots += c
			s.Bursts.Ops += c * uint64(n)
		}
	}
	return s
}

// summary merges every thread's shard of histogram h.
func (r *Recorder) summary(h Hist) HistogramSummary {
	var buckets [NumBuckets]uint64
	var max uint64
	for tid := 0; tid < r.threads; tid++ {
		s := &r.hists[tid*int(NumHists)+int(h)]
		for i := range buckets {
			buckets[i] += s.buckets[i].Load()
		}
		if m := s.max.Load(); m > max {
			max = m
		}
	}
	return summarize(buckets, time.Duration(max))
}
