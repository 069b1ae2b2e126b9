// Package core implements the DPS runtime — Distributed, Delegated Parallel
// Sections (Ren & Parmer, Middleware '19). DPS partitions a data-structure's
// key namespace across memory localities. An operation on a key owned by the
// calling thread's locality executes as a plain function call; otherwise it
// is delegated over a per-(thread, partition) message ring to the owning
// locality, where whichever peer thread next polls its rings executes it.
// While a thread waits for its own delegations it serves requests delegated
// to its locality (§4.3), so every core contributes to data-structure
// processing and no core is reserved as a server.
//
// The package follows the paper's implementation (§4): a message is a
// combined request/completion record with a toggle bit; rings are dedicated
// per (sending thread, destination partition) so the serving side needs no
// synchronization in the common case; asynchronous execution, local
// execution of read-mostly operations, and broadcast/range operations are
// provided as extensions (§4.4).
//
// The paper's API (§3.1) is execute → completion record → await_completion.
// Thread.ExecuteInto is that call with the record in storage the caller owns,
// so a thread can hold a wave of delegations in flight and collect them in
// any order; ExecuteSync is execute followed at once by the await, its record
// on the stack. Config.OpTimeout bounds every wait of a call that hands its
// caller a Result.
//
// The public entry point for applications is the root dps package, which
// re-exports this one.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dps/internal/chaos"
	"dps/internal/obs"
	"dps/internal/parsec"
	"dps/internal/ring"
	"dps/internal/wire"
)

// Defaults for Config fields left zero.
const (
	DefaultNamespaceSize = 1 << 16
	DefaultRingDepth     = 16
	DefaultMaxThreads    = 128
	// DefaultServeBatch bounds how many pending requests a serving thread
	// drains from one sender's ring per claim of that ring's serve token,
	// mirroring ffwd's 15-response batch (§5.1 of the paper): small enough
	// to return the server to its own completion polls (and to other
	// senders' rings) soon, large enough to amortize the claim.
	DefaultServeBatch = ring.DefaultBatch
)

// ErrClosed is returned by operations on a closed runtime. It is the same
// sentinel the transport layers use (ring.ErrClosed); a cross-process
// operation that fails because the *peer's* link is down reports
// ErrPeerDown instead, so callers can tell "we shut down" from "they
// went away".
var ErrClosed = ring.ErrClosed

// ErrPeerDown is returned by operations delegated toward a peer process
// whose link stayed down for the operation's whole retry budget: no
// redial succeeded before the burst could be written. The operation was
// never delivered, so it is always safe to retry. Shared with the
// transport layers (ring.ErrPeerDown).
var ErrPeerDown = ring.ErrPeerDown

// ErrTooManyThreads is returned by Register when MaxThreads thread handles
// are already live.
var ErrTooManyThreads = errors.New("dps: too many registered threads")

// ErrUnregistered is the panic value raised when a Thread is used after
// Unregister. Unregistered threads hold no locality membership, so letting
// such calls proceed would silently corrupt the peer-serving protocol; the
// misuse is reported loudly instead of misbehaving quietly.
var ErrUnregistered = errors.New("dps: thread used after Unregister")

// ErrTimeout is the Result.Err of a call that outlived Config.OpTimeout (or,
// on a peer's partition, Peer.Timeout), and Shutdown's error at its deadline.
// A timed-out operation may still execute later; the runtime discards its
// result and hands any panic it raises to Config.OnPanic. Shared with the
// transport layers (ring.ErrTimeout) for the same reason as ErrClosed.
var ErrTimeout = ring.ErrTimeout

// Config parameterizes a Runtime. It mirrors the arguments of the paper's
// create call: partition count, namespace size and hash function (§3.1),
// plus the implementation knobs from §4 (ring depth).
type Config struct {
	// Partitions is the number of namespace partitions, each bound to one
	// locality. The paper uses one partition per NUMA socket, with a
	// locality size of 10 hardware threads (§5). Required, >= 1.
	Partitions int

	// NamespaceSize is the size of the flat key namespace ids are hashed
	// into. Defaults to DefaultNamespaceSize.
	NamespaceSize uint64

	// Hash maps an application key to a namespace id (§4.1). The choice
	// controls the key→locality mapping: a mixing hash spreads hot keys,
	// an identity or consistent hash preserves application locality.
	// Defaults to Mix64.
	Hash func(key uint64) uint64

	// RingDepth is the number of message slots per (thread, partition)
	// ring. Defaults to DefaultRingDepth.
	RingDepth int

	// MaxThreads bounds the number of concurrently registered threads.
	// Defaults to DefaultMaxThreads.
	MaxThreads int

	// OpTimeout bounds every call that hands its caller a Result —
	// ExecuteSync, ExecuteInto's ring-full wait, Completion.Result,
	// ExecutePartition, ExecuteAll, ExecuteLocal on a peer's partition — from
	// the moment the call first has to wait; past it the call resolves to
	// Result{Err: ErrTimeout}. 0 means no bound, except that a wait on a
	// peer's partition keeps Peer.Timeout's. ExecuteAsync and Drain are
	// outside the rule (see wait.go).
	OpTimeout time.Duration

	// DisableTiming turns off the per-operation clock reads behind the
	// latency histograms: Runtime.Metrics' Latency summaries stay empty
	// and Tracer hooks receive zero durations, but the delegation hot
	// paths never consult time.Now. Counters are unaffected.
	DisableTiming bool

	// Init constructs partition-local data (e.g. the partition's shard of
	// the wrapped data-structure). It is called once per partition at
	// Create time; the returned value is available via Partition.Data.
	// Optional.
	Init func(p *Partition) any

	// Tracer receives per-event observability callbacks (sends, serves,
	// completions, ring-full back-pressure). Optional: when nil the
	// runtime installs a no-op tracer and skips every hook behind a
	// single predictable branch, so tracing costs nothing unless
	// requested. Hooks run inline on the runtime's threads; see
	// obs.Tracer for the contract.
	Tracer Tracer

	// OnPanic receives the panics of delegated operations no completion will
	// ever observe — fire-and-forget requests, and synchronous requests
	// whose sender abandoned the completion after a timeout (a panic with a
	// live awaiter re-raises on the awaiting thread instead). It runs inline
	// on the serving thread, which may hold a ring claim: handlers must be
	// fast and must not call back into the runtime. A handler that panics
	// itself is fail-stop: it takes down the thread it runs on. When nil,
	// the panic is logged to the standard logger. Optional.
	OnPanic func(PanicInfo)

	// Chaos installs a fault injector on the runtime's delegation paths
	// (see internal/chaos). Nil — the default — leaves only a nil-check
	// per hook site in the hot paths. Intended for tests and chaos
	// benchmarking, not production configurations.
	Chaos *chaos.Injector

	// Peers declares partitions owned by peer processes: operations on
	// keys hashing into a peer's partitions delegate over TCP
	// (internal/wire) instead of over a shared-memory ring. Partition
	// ownership must be disjoint across peers and leave at least one
	// partition local. Every process in a cluster must configure the same
	// Partitions, NamespaceSize and Hash, and register the same op codes
	// (RegisterOp). Optional.
	Peers []Peer
}

func (c *Config) setDefaults() error {
	if c.Partitions < 1 {
		return fmt.Errorf("dps: Partitions must be >= 1, got %d", c.Partitions)
	}
	if c.NamespaceSize == 0 {
		c.NamespaceSize = DefaultNamespaceSize
	}
	if uint64(c.Partitions) > c.NamespaceSize {
		return fmt.Errorf("dps: Partitions (%d) exceeds NamespaceSize (%d)", c.Partitions, c.NamespaceSize)
	}
	if c.Hash == nil {
		c.Hash = Mix64
	}
	if c.RingDepth == 0 {
		c.RingDepth = DefaultRingDepth
	}
	if c.RingDepth < 1 {
		return fmt.Errorf("dps: RingDepth must be >= 1, got %d", c.RingDepth)
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = DefaultMaxThreads
	}
	if c.MaxThreads < 1 {
		return fmt.Errorf("dps: MaxThreads must be >= 1, got %d", c.MaxThreads)
	}
	if c.OpTimeout < 0 {
		return fmt.Errorf("dps: OpTimeout must be >= 0, got %v", c.OpTimeout)
	}
	return nil
}

// Partition is one namespace partition and its binding to a locality: the
// partition-local data-structure shard plus the receive side of every
// thread's message ring targeting this partition.
type Partition struct {
	id   int
	lo   uint64 // namespace id range [lo, hi)
	hi   uint64
	rt   *Runtime
	data any

	// rings[tid] is thread tid's ring targeting this partition, created
	// lazily when the thread registers.
	rings []atomic.Pointer[dring]

	// bell is the partition's doorbell: bit tid is set when thread tid
	// published work into rings[tid], so a serve pass visits only the
	// rings of active senders instead of scanning the whole table.
	bell *ring.Doorbell

	// workers counts threads currently registered to this locality; parked
	// is the bitmap of those parked idle, reading counts those blocked in a
	// peer connection's read instead (Thread.park), out of reach of a wake,
	// and idle counts those under an Idle mark (outside every call, so
	// serving nothing until their next one). Together they decide
	// unattended. An idle locality costs ~zero CPU, yet an operation toward
	// it waits out no sleep quantum: it runs on its sender, or its publish
	// picks one parked thread and wakes it.
	workers atomic.Int32
	parked  *ring.ParkSet
	reading atomic.Int32
	idle    atomic.Int32

	// peer is non-nil when the partition is owned by a peer process
	// (Config.Peers): no local shard, no rings, no doorbell — operations
	// route over the wire via the peer link at peerIdx. The in-process
	// hot path pays exactly one nil-check on this field.
	peer    *wire.Peer
	peerIdx int
}

// unattended reports whether no thread of the locality will serve a burst
// toward it: every registered thread is parked (on its slot or in a peer
// connection's read) or Idle, which includes none being registered. It is the one statement of when a sender runs an
// operation toward the locality itself — at issue (Thread.issue), or off its
// own ring while it waits (Thread.selfServe). Local partitions only.
func (p *Partition) unattended() bool {
	return p.parked.Count()+int(p.reading.Load()+p.idle.Load()) >= int(p.workers.Load())
}

// ID returns the partition's index in [0, Partitions).
func (p *Partition) ID() int { return p.id }

// Range returns the namespace id range [lo, hi) owned by the partition.
func (p *Partition) Range() (lo, hi uint64) { return p.lo, p.hi }

// Data returns the partition-local value built by Config.Init.
func (p *Partition) Data() any { return p.data }

// Workers returns the number of threads currently registered to this
// partition's locality.
func (p *Partition) Workers() int { return int(p.workers.Load()) }

// Runtime is a DPS instance managing one partitioned data-structure.
type Runtime struct {
	cfg   Config
	ns    *parsec.Namespace
	parts []*Partition
	smr   *parsec.Domain

	mu      sync.Mutex
	nextTID int
	freeTID []int
	nlive   int
	closed  bool

	// down is set once Shutdown finishes (cleanly or at its deadline):
	// new operations panic with ErrClosed and blocked waits unwind with a
	// Result carrying ErrClosed. It is distinct from closed, which flips
	// at the start of Shutdown to quiesce registration while in-flight
	// work is still being drained.
	down atomic.Bool

	rec *obs.Recorder

	// tracer is never nil (New installs NopTracer), but every hot-path
	// hook site still tests the tracing flag first so disabled tracing
	// costs one predictable branch, not an interface call.
	tracer  obs.Tracer
	tracing bool

	// chaos is the optional fault injector; nil outside chaos tests.
	chaos *chaos.Injector

	// peers are the configured peer-process links, in Config.Peers order.
	peers []*wire.Peer

	// servers are the wire servers NewPeerServer built on this runtime,
	// whose dedup replay counts Metrics reports. Guarded by mu.
	servers []*wire.Server

	// optab is the immutable op registry snapshot (RegisterOp swaps it
	// copy-on-write), mapping wire codes to ops and back for the
	// cross-process tier.
	optab atomic.Pointer[opTable]

	// parker holds one park slot per thread id; idle waiters block on
	// their slot and the doorbell/serve paths wake them directly.
	parker *ring.Parker
}

// New creates a DPS runtime. It is the analogue of the paper's
// dps_t create(ds_init_fn, ds_args, partition_cnt, ns_sz, hash_fn).
func New(cfg Config) (*Runtime, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	ns, err := parsec.NewNamespace(cfg.NamespaceSize, cfg.Partitions)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		cfg:   cfg,
		ns:    ns,
		parts: make([]*Partition, cfg.Partitions),
		smr:   parsec.NewDomain(),
		// One recorder row beyond MaxThreads: the reserved attribution
		// slot for Shutdown's drain sweep, which executes requests
		// without holding a registered thread id.
		rec:     obs.NewRecorder(cfg.MaxThreads+1, cfg.Partitions),
		tracer:  cfg.Tracer,
		tracing: cfg.Tracer != nil,
		chaos:   cfg.Chaos,
	}
	rt.rec.SetTiming(!cfg.DisableTiming)
	if rt.tracer == nil {
		rt.tracer = obs.NopTracer{}
	}
	rt.optab.Store(&opTable{byCode: map[uint16]Op{}, byPtr: map[uintptr]uint16{}})
	rt.parker = ring.NewParker(cfg.MaxThreads)
	for i := range rt.parts {
		lo, hi := ns.Range(i)
		rt.parts[i] = &Partition{id: i, lo: lo, hi: hi, rt: rt}
	}
	// Bind peer-owned partitions before allocating local serving state:
	// a remote partition gets neither rings nor a doorbell nor a shard —
	// its serve side lives in another process.
	if err := rt.peersFromConfig(); err != nil {
		return nil, err
	}
	for _, p := range rt.parts {
		if p.peer != nil {
			continue
		}
		p.rings = make([]atomic.Pointer[dring], cfg.MaxThreads)
		p.bell = ring.NewDoorbell(cfg.MaxThreads)
		p.parked = ring.NewParkSet(cfg.MaxThreads)
	}
	// Init runs after all partitions exist so initializers may inspect
	// sibling partitions (e.g. to share configuration). Remote partitions
	// are skipped: their shard belongs to the owning process.
	if cfg.Init != nil {
		for _, p := range rt.parts {
			if p.peer != nil {
				continue
			}
			p.data = cfg.Init(p)
		}
	}
	return rt, nil
}

// Partitions returns the partition count.
func (rt *Runtime) Partitions() int { return len(rt.parts) }

// RingDepth is the slot count of each (thread, partition) ring — and so the
// number of unconsumed ExecuteInto completions one thread may hold toward one
// partition. One more send waits for a slot only the thread itself can free:
// under Config.OpTimeout it ends in ErrTimeout, without one it never ends.
func (rt *Runtime) RingDepth() int { return rt.cfg.RingDepth }

// wholeRing is the drain bound of the callers that want everything one claim
// can reach (a sender draining its own ring, stall escalation, the shutdown
// sweep): a full ring of maximally packed bursts, in operations.
func (rt *Runtime) wholeRing() int { return rt.cfg.RingDepth * burstSize }

// Partition returns partition i.
func (rt *Runtime) Partition(i int) *Partition { return rt.parts[i] }

// PartitionForKey returns the partition owning key under the configured
// hash, i.e. the locality an operation on key would run in.
func (rt *Runtime) PartitionForKey(key uint64) *Partition {
	return rt.parts[rt.ns.Lookup(rt.cfg.Hash(key))]
}

// SMR returns the runtime's quiescence domain. Wrapped data-structures can
// use it to retire removed nodes safely (ParSec provides DPS's memory
// reclamation, §4).
func (rt *Runtime) SMR() *parsec.Domain { return rt.smr }

// Register adds the calling goroutine as a DPS thread, assigning it to the
// locality with the fewest threads so registration alone balances workers
// across partitions. The scan and the worker-count bump happen under the
// runtime lock, so concurrent Registers cannot pick the same least-loaded
// partition and skew the balance. Peer-owned partitions are not
// localities of this process and never receive workers. The returned
// Thread must be used by one goroutine at a time and unregistered when
// done.
func (rt *Runtime) Register() (*Thread, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	best, min := -1, int(^uint(0)>>1)
	for i, p := range rt.parts {
		if p.peer != nil {
			continue
		}
		if w := int(p.workers.Load()); w < min {
			best, min = i, w
		}
	}
	if best < 0 {
		// Unreachable under New's at-least-one-local validation.
		return nil, fmt.Errorf("dps: no local partition to register into")
	}
	return rt.registerLocked(best)
}

// RegisterAt adds the calling goroutine as a DPS thread bound to locality
// loc. This is the analogue of pinning a thread to a socket: the thread
// executes operations on partition loc directly and serves requests
// delegated to loc while it waits.
func (rt *Runtime) RegisterAt(loc int) (*Thread, error) {
	if loc < 0 || loc >= len(rt.parts) {
		return nil, fmt.Errorf("dps: locality %d out of range [0,%d)", loc, len(rt.parts))
	}
	if rt.parts[loc].peer != nil {
		return nil, fmt.Errorf("dps: partition %d is owned by peer %s", loc, rt.parts[loc].peer.Addr())
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.registerLocked(loc)
}

// registerLocked allocates a thread id, its rings, and the locality
// membership. Caller holds rt.mu; the worker-count increment stays inside
// the critical section so Register's least-loaded scan observes it.
func (rt *Runtime) registerLocked(loc int) (*Thread, error) {
	if rt.closed {
		return nil, ErrClosed
	}
	var tid int
	if n := len(rt.freeTID); n > 0 {
		tid = rt.freeTID[n-1]
		rt.freeTID = rt.freeTID[:n-1]
	} else {
		if rt.nextTID >= rt.cfg.MaxThreads {
			return nil, ErrTooManyThreads
		}
		tid = rt.nextTID
		rt.nextTID++
	}
	rt.nlive++

	// Every step past the id claim must either complete or give the claim
	// back: a panic in SMR registration or ring allocation (injected faults,
	// allocation failure) would otherwise leak the thread slot forever and
	// eventually exhaust MaxThreads. The caller still holds rt.mu when this
	// defer runs, so the rollback is race-free.
	ok := false
	var smrTh *parsec.Thread
	defer func() {
		if ok {
			return
		}
		if smrTh != nil {
			smrTh.Unregister()
		}
		rt.freeTID = append(rt.freeTID, tid)
		rt.nlive--
	}()

	smrTh = rt.smr.Register()
	t := &Thread{
		rt:       rt,
		id:       tid,
		locality: loc,
		smr:      smrTh,
		chaos:    rt.chaos,
		opened:   make([]*Partition, 0, len(rt.parts)),
	}
	// Create this thread's rings (one per cross-locality partition),
	// allocated on first registration of the thread id and reused across
	// re-register. Peer-owned partitions have no rings here — their
	// transport is the wire link below.
	for _, p := range rt.parts {
		if p.peer != nil {
			continue
		}
		if p.rings[tid].Load() == nil {
			r := newRing(rt.cfg.RingDepth)
			if rt.chaos != nil {
				r.SetClaimFault(rt.chaos.DropClaim)
			}
			p.rings[tid].Store(r)
		}
	}
	if len(rt.peers) > 0 {
		t.links = make([]*wire.Link, len(rt.peers))
		for i, wp := range rt.peers {
			t.links[i] = wp.NewLink(tid)
			// Whoever reads the link's connection wakes this thread's park
			// slot when one of its bursts resolves, as a serving thread does
			// for a ring, and when it hands the reading on.
			t.links[i].WakeOn(rt.parker, tid)
		}
	}
	rt.parts[loc].workers.Add(1)
	ok = true
	return t, nil
}

// unregister returns t's resources. Called via Thread.Unregister.
func (rt *Runtime) unregister(t *Thread) {
	t.smr.Unregister()
	rt.mu.Lock()
	rt.parts[t.locality].workers.Add(-1)
	rt.freeTID = append(rt.freeTID, t.id)
	rt.nlive--
	rt.mu.Unlock()
}

// Mix64 is the default key hash: a Stafford/SplitMix64 finalizer, spreading
// adjacent keys across the namespace (and therefore partitions) uniformly.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// IdentityHash preserves key order: adjacent keys land in the same
// partition, implementing the "consistent hash to preserve locality" choice
// from §4.1. Applications use it when multi-key operations should be
// single-partition (§3.3).
func IdentityHash(x uint64) uint64 { return x }
