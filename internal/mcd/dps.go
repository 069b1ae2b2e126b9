package mcd

import (
	"fmt"
	"time"

	"dps/internal/chaos"
	"dps/internal/core"
	"dps/internal/ffwd"
)

// DPS partitions a memcached variant across DPS localities, the §5.3 port:
// "partitions not only the hash table, but also all associated
// data-structures [LRU, slab]. It also asynchronously delegates set
// requests to remote partitions, while get requests remain synchronous
// delegations." With LocalGets (the DPS-ParSec configuration), gets run on
// the calling thread against the owning partition's shard instead — §4.4's
// local-execution optimization, valid because the ParSec shard's get path
// is safe for cross-locality readers.
type DPS struct {
	rt        *core.Runtime
	localGets bool
}

// DPSConfig parameterizes the partitioned cache.
type DPSConfig struct {
	// Partitions is the locality count (one full cache shard per
	// locality — hash table, LRU and slab all partition together).
	Partitions int
	// NewShard builds one partition's cache (each gets 1/Partitions of
	// the memory budget). Defaults to Stock shards.
	NewShard func() (Cache, error)
	// LocalGets executes gets on the calling thread (DPS-ParSec mode).
	// Only safe when the shard's Get is concurrency-safe for readers
	// outside the owning locality.
	LocalGets bool
	// MaxThreads bounds registered handles.
	MaxThreads int
	// Peers hands ownership of some partitions to peer processes: their
	// shards live in the owning process, and operations on their keys
	// travel the wire tier. Every process in the cluster must use the
	// same Partitions count (the hello handshake verifies it) and the
	// default key hash.
	Peers []core.Peer
	// OpTimeout is the runtime's core.Config.OpTimeout: Get, Set, Delete
	// and every get of a Wave end in core.ErrTimeout once they outlive it.
	// 0 means no bound.
	OpTimeout time.Duration
	// Chaos installs a fault injector on the runtime's delegation paths
	// (tests only).
	Chaos *chaos.Injector
}

// Wire codes of the cache operations, identical in every process of a
// cluster (NewDPS registers them unconditionally, so any two DPS caches
// interoperate).
const (
	opCodeGet    uint16 = 1
	opCodeSet    uint16 = 2
	opCodeDelete uint16 = 3
	opCodeLen    uint16 = 4
)

// NewDPS creates the partitioned cache.
func NewDPS(cfg DPSConfig) (*DPS, error) {
	if cfg.NewShard == nil {
		cfg.NewShard = func() (Cache, error) { return NewStock(StockConfig{}) }
	}
	var shardErr error
	rt, err := core.New(core.Config{
		Partitions: cfg.Partitions,
		MaxThreads: cfg.MaxThreads,
		Peers:      cfg.Peers,
		OpTimeout:  cfg.OpTimeout,
		Chaos:      cfg.Chaos,
		Init: func(p *core.Partition) any {
			c, err := cfg.NewShard()
			if err != nil && shardErr == nil {
				shardErr = err
			}
			return c
		},
	})
	if err != nil {
		return nil, err
	}
	if shardErr != nil {
		// Release the runtime the failed construction claimed — callers
		// only ever see the error, so they cannot close it themselves.
		_ = rt.Close()
		return nil, fmt.Errorf("mcd: shard init: %w", shardErr)
	}
	// Register the cache ops under their wire codes so this cache can
	// delegate to peers and serve for them. Registration is idempotent
	// and cheap, so it is unconditional — single-process caches just
	// never use the table.
	for _, reg := range []struct {
		code uint16
		op   core.Op
	}{{opCodeGet, opGet}, {opCodeSet, opSet}, {opCodeDelete, opDelete}, {opCodeLen, opLen}} {
		if err := rt.RegisterOp(reg.code, reg.op); err != nil {
			_ = rt.Close()
			return nil, fmt.Errorf("mcd: registering op %d: %w", reg.code, err)
		}
	}
	return &DPS{rt: rt, localGets: cfg.LocalGets}, nil
}

// Runtime exposes the underlying DPS runtime.
func (d *DPS) Runtime() *core.Runtime { return d.rt }

// DPSHandle is a registered, locality-bound accessor (one goroutine at a
// time, like core.Thread). It is the dps variants' Session and Waver. Its
// errors are the runtime's — core.ErrTimeout past DPSConfig.OpTimeout,
// core.ErrClosed after shutdown, core.ErrPeerDown — except a Set's verdict
// (cache full, oversized value).
//
// A handle serves its locality only while it waits inside a call, so outside
// its calls it is under core.Thread.Idle's mark: from registration on and at
// the end of every method. An operation toward a locality whose handles are
// all between calls therefore runs on its sender, and no other thread has to
// serve a handle that sits unused.
type DPSHandle struct {
	t *core.Thread
	d *DPS
	// wave holds the completion records of the gets Wave has in flight.
	wave [MaxWave]core.Completion
}

// Register binds the caller to the least-loaded locality.
func (d *DPS) Register() (*DPSHandle, error) {
	t, err := d.rt.Register()
	if err != nil {
		return nil, err
	}
	t.Idle()
	return &DPSHandle{t: t, d: d}, nil
}

// RegisterAt binds the caller to locality loc.
func (d *DPS) RegisterAt(loc int) (*DPSHandle, error) {
	t, err := d.rt.RegisterAt(loc)
	if err != nil {
		return nil, err
	}
	t.Idle()
	return &DPSHandle{t: t, d: d}, nil
}

// Close drains outstanding asynchronous sets and unregisters the handle.
func (h *DPSHandle) Close() { h.t.Unregister() }

// Serve processes requests pending on the handle's locality.
func (h *DPSHandle) Serve() int {
	defer h.t.Idle()
	return h.t.Serve()
}

// Drain waits for the handle's asynchronous sets to complete.
func (h *DPSHandle) Drain() {
	defer h.t.Idle()
	h.t.Drain()
}

func opGet(p *core.Partition, key uint64, _ *core.Args) core.Result {
	v, ok := p.Data().(Cache).Get(key)
	return core.Result{P: v, U: boolU(ok)}
}

func opSet(p *core.Partition, key uint64, args *core.Args) core.Result {
	// A zero-length value arrives from the wire tier with args.P unset (the
	// frame cannot distinguish nil from empty, and the cache stores both as
	// empty). Stock/ParSec Set copies the value into its own slab.
	val, _ := args.P.([]byte)
	if err := p.Data().(Cache).Set(key, val); err != nil {
		return core.Result{Err: err}
	}
	return core.Result{}
}

func opDelete(p *core.Partition, key uint64, _ *core.Args) core.Result {
	return core.Result{U: boolU(p.Data().(Cache).Delete(key))}
}

func opLen(p *core.Partition, _ uint64, _ *core.Args) core.Result {
	return core.Result{U: uint64(p.Data().(Cache).Len())}
}

func boolU(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Get fetches key's value: synchronous delegation to the owning locality,
// or local execution in LocalGets mode.
func (h *DPSHandle) Get(key uint64) ([]byte, bool, error) {
	defer h.t.Idle()
	var res core.Result
	if h.d.localGets {
		res = h.t.ExecuteLocal(key, opGet, core.Args{})
	} else {
		res = h.t.ExecuteSync(key, opGet, core.Args{})
	}
	v, ok := valOK(res)
	return v, ok, res.Err
}

// Wave runs ops as gets with all of them in flight at once: every get is
// issued (consecutive same-partition gets share a burst slot, peer-owned
// ones a wire frame) before the first is awaited, then the results are
// collected in request order. At most min(MaxWave, ring depth) gets are in
// flight — a completion holds its ring slot until collected, so a deeper
// wave could wait on a slot only this handle can free — and longer op lists
// run as consecutive waves. Each issue and each collect is a call of its own
// under OpTimeout.
//
//dps:noalloc
func (h *DPSHandle) Wave(ops []WaveOp) {
	defer h.t.Idle()
	depth := min(MaxWave, h.t.Runtime().RingDepth())
	for len(ops) > 0 {
		n := min(len(ops), depth)
		h.collectWave(ops[:n], h.issueWave(ops[:n]))
		ops = ops[n:]
	}
}

// issueWave starts every op's get. LocalGets lookups of locally-owned
// partitions run here, on the calling thread; the returned mask has bit i set
// for each op answered that way.
//
//dps:noalloc via Wave
func (h *DPSHandle) issueWave(ops []WaveOp) (answered uint16) {
	rt := h.t.Runtime()
	for i := range ops {
		o := &ops[i]
		if h.d.localGets && !rt.PartitionForKey(o.Key).Remote() {
			o.Val, o.OK = valOK(h.t.ExecuteLocal(o.Key, opGet, core.Args{}))
			o.Err = nil
			answered |= 1 << i
			continue
		}
		h.t.ExecuteInto(&h.wave[i], o.Key, opGet, core.Args{})
	}
	return answered
}

// collectWave awaits the delegated gets in request order.
//
//dps:noalloc via Wave
func (h *DPSHandle) collectWave(ops []WaveOp, answered uint16) {
	for i := range ops {
		if answered&(1<<i) != 0 {
			continue
		}
		c := &h.wave[i]
		res := c.Result()
		o := &ops[i]
		o.Val, o.OK = valOK(res)
		o.Err = res.Err
		// Drop the record's reference to the value bytes.
		*c = core.Completion{}
	}
}

// valOK unpacks opGet's result; a failed lookup (res.Err set) is a miss.
func valOK(res core.Result) ([]byte, bool) {
	if res.U == 0 {
		return nil, false
	}
	return res.P.([]byte), true
}

// Set stores key->val and waits for the result (synchronous delegation).
func (h *DPSHandle) Set(key uint64, val []byte) error {
	defer h.t.Idle()
	return h.t.ExecuteSync(key, opSet, core.Args{P: val}).Err
}

// SetAsync stores key->val asynchronously (fire-and-forget delegation).
// Ordering to the same partition is FIFO, so this handle's later Get of the
// same key observes the set (§3.3 read-your-writes). Errors from
// asynchronous sets (cache full, oversized value) are dropped; use Set when
// the caller must observe them. Flush publishes buffered sets, Drain awaits
// them. The set may stay buffered past the call, which consecutive sets to
// the same partition pack beside; val is the runtime's until the set has
// run, so the caller must not modify it before Drain returns.
func (h *DPSHandle) SetAsync(key uint64, val []byte) {
	defer h.t.Idle()
	h.t.ExecuteAsync(key, opSet, core.Args{P: val})
}

// Flush publishes this handle's buffered asynchronous sets without waiting
// for their execution.
func (h *DPSHandle) Flush() {
	defer h.t.Idle()
	h.t.Flush()
}

// Delete removes key (synchronous), reporting whether it was present.
func (h *DPSHandle) Delete(key uint64) (bool, error) {
	defer h.t.Idle()
	res := h.t.ExecuteSync(key, opDelete, core.Args{})
	return res.U == 1, res.Err
}

// Len sums shard sizes with a broadcast.
func (h *DPSHandle) Len() int {
	defer h.t.Idle()
	res := h.t.ExecuteAll(opLen, core.Args{}, func(rs []core.Result) core.Result {
		var sum uint64
		for _, r := range rs {
			sum += r.U
		}
		return core.Result{U: sum}
	})
	return int(res.U)
}

// FFWD wraps a single unsynchronized cache shard behind one ffwd server —
// the §5.3 ffwd memcached, "where all get and set operations are delegated
// to a single server without any synchronization".
type FFWD struct {
	sys *ffwd.System
}

// NewFFWD creates the single-server delegated cache.
func NewFFWD(shard Cache) (*FFWD, error) {
	sys, err := ffwd.New(ffwd.Config{
		Servers:   1,
		ShardInit: func(int) any { return shard },
	})
	if err != nil {
		return nil, err
	}
	return &FFWD{sys: sys}, nil
}

// Close stops the server.
func (f *FFWD) Close() { f.sys.Close() }

// FFWDHandle is a registered client.
type FFWDHandle struct {
	c *ffwd.Client
}

// Register adds a client.
func (f *FFWD) Register() (*FFWDHandle, error) {
	c, err := f.sys.Register()
	if err != nil {
		return nil, err
	}
	return &FFWDHandle{c: c}, nil
}

// Unregister releases the client.
func (h *FFWDHandle) Unregister() { h.c.Unregister() }

func ffwdGet(shard any, key uint64, _ *ffwd.Args) ffwd.Result {
	v, ok := shard.(Cache).Get(key)
	return ffwd.Result{P: v, U: boolU(ok)}
}

func ffwdSet(shard any, key uint64, args *ffwd.Args) ffwd.Result {
	if err := shard.(Cache).Set(key, args.P.([]byte)); err != nil {
		return ffwd.Result{Err: err}
	}
	return ffwd.Result{}
}

func ffwdDelete(shard any, key uint64, _ *ffwd.Args) ffwd.Result {
	return ffwd.Result{U: boolU(shard.(Cache).Delete(key))}
}

func ffwdLen(shard any, _ uint64, _ *ffwd.Args) ffwd.Result {
	return ffwd.Result{U: uint64(shard.(Cache).Len())}
}

// Get fetches key through the server.
func (h *FFWDHandle) Get(key uint64) ([]byte, bool) {
	res := h.c.Call(key, ffwdGet, ffwd.Args{})
	if res.U == 0 {
		return nil, false
	}
	return res.P.([]byte), true
}

// Set stores key->val through the server.
func (h *FFWDHandle) Set(key uint64, val []byte) error {
	return h.c.Call(key, ffwdSet, ffwd.Args{P: val}).Err
}

// SetAsync mirrors DPSHandle.SetAsync on the ffwd variant. The ffwd channel
// is a single synchronous request slot per client, so the call completes
// before returning; the error is dropped to match the asynchronous
// contract.
func (h *FFWDHandle) SetAsync(key uint64, val []byte) {
	_ = h.c.Call(key, ffwdSet, ffwd.Args{P: val})
}

// Flush is a no-op: ffwd calls complete synchronously.
func (h *FFWDHandle) Flush() {}

// Drain is a no-op: ffwd calls complete synchronously.
func (h *FFWDHandle) Drain() {}

// Delete removes key through the server.
func (h *FFWDHandle) Delete(key uint64) bool {
	return h.c.Call(key, ffwdDelete, ffwd.Args{}).U == 1
}

// Len reports the shard's item count through the server.
func (h *FFWDHandle) Len() int {
	return int(h.c.Call(0, ffwdLen, ffwd.Args{}).U)
}
