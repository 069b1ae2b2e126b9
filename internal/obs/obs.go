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

import (
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"

	"dps/internal/ring"
)

// Counter indexes one event counter within a (thread, partition) block: the
// word of Totals it rolls up into, so Totals is the one declaration of the
// runtime's counters and documents each. Every counter is attributed to a
// partition: sends (remote, async, ring-full, rescued) to the destination
// partition, local execs to the partition whose shard ran the operation,
// serves to the serving thread's own locality.
type Counter int

// The runtime event counters, each the index of its Totals field.
const (
	LocalExec        = Counter(unsafe.Offsetof(Totals{}.LocalExecs) / 8)
	RemoteSend       = Counter(unsafe.Offsetof(Totals{}.RemoteSends) / 8)
	AsyncSend        = Counter(unsafe.Offsetof(Totals{}.AsyncSends) / 8)
	Served           = Counter(unsafe.Offsetof(Totals{}.Served) / 8)
	RingFull         = Counter(unsafe.Offsetof(Totals{}.RingFullWaits) / 8)
	Rescued          = Counter(unsafe.Offsetof(Totals{}.Rescued) / 8)
	Stalls           = Counter(unsafe.Offsetof(Totals{}.Stalls) / 8)
	Panics           = Counter(unsafe.Offsetof(Totals{}.Panics) / 8)
	Abandoned        = Counter(unsafe.Offsetof(Totals{}.Abandoned) / 8)
	RingScansSkipped = Counter(unsafe.Offsetof(Totals{}.RingScansSkipped) / 8)
	DoorbellWakes    = Counter(unsafe.Offsetof(Totals{}.DoorbellWakes) / 8)
	RemoteOps        = Counter(unsafe.Offsetof(Totals{}.RemoteOps) / 8)
	RemoteBytes      = Counter(unsafe.Offsetof(Totals{}.RemoteBytes) / 8)
	PeerStalls       = Counter(unsafe.Offsetof(Totals{}.PeerStalls) / 8)
	Parks            = Counter(unsafe.Offsetof(Totals{}.Parks) / 8)
	Wakes            = Counter(unsafe.Offsetof(Totals{}.Wakes) / 8)
	ArenaAcquires    = Counter(unsafe.Offsetof(Totals{}.ArenaAcquires) / 8)
	ArenaFallbacks   = Counter(unsafe.Offsetof(Totals{}.ArenaFallbacks) / 8)
	UnattendedExec   = Counter(unsafe.Offsetof(Totals{}.UnattendedExecs) / 8)
	// NumCounters is the number of counters per block: one per Totals word.
	NumCounters = Counter(unsafe.Sizeof(Totals{}) / 8)
)

// blockStride is the unit the counter block is padded to: two cache lines,
// covering the spatial-prefetcher pairing on common x86 parts.
const blockStride = 128

// block is the counter set for one (thread, partition) pair. Exactly one
// thread writes a given block, so the only coherence traffic is snapshot
// reads; padding to a whole number of strides keeps neighbouring blocks
// from false-sharing.
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
	// of peers, including requests a sender executed off its own ring.
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
func (r *Recorder) Start() Stamp {
	if !r.timed {
		return Stamp{}
	}
	return Stamp{t: time.Now()}
}

// Since returns the elapsed time from a Start stamp, or 0 with timing
// disabled (the duration then flows to Tracer hooks as zero).
func (r *Recorder) Since(s Stamp) time.Duration {
	if !r.timed {
		return 0
	}
	return time.Since(s.t)
}

// Add adds n to counter c of thread tid's block for partition part.
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
		for part := range s.PerPartition {
			b := &r.blocks[tid*r.parts+part]
			pm := words(&s.PerPartition[part].Totals)
			for c := range b.c {
				pm[c] += b.c[c].Load()
			}
		}
	}
	total := words(&s.Totals)
	for part := range s.PerPartition {
		for c, n := range words(&s.PerPartition[part].Totals) {
			total[c] += n
		}
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
