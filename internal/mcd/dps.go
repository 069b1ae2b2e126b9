package mcd

import (
	"fmt"
	"net"
	"sync"
	"time"

	"dps/internal/core"
	"dps/internal/obs"
)

// The dps variants partition a memcached variant across DPS localities, the
// §5.3 port: "partitions not only the hash table, but also all associated
// data-structures [LRU, slab]. It also asynchronously delegates set requests
// to remote partitions, while get requests remain synchronous delegations."
// dps-parsec runs gets on the calling thread against the owning partition's
// ParSec shard instead — §4.4's local-execution optimization, valid because
// the ParSec shard's get path is safe for cross-locality readers.

// Wire codes of the cache operations, identical in every process of a
// cluster (openDPS registers them unconditionally, so any two dps stores
// interoperate).
const (
	opCodeGet    uint16 = 1
	opCodeSet    uint16 = 2
	opCodeDelete uint16 = 3
)

// openDPS builds the partitioned store: one runtime whose every local
// partition holds a shard from newShard, given its even share of the memory
// and bucket budgets.
func openDPS(cfg Config, localGets bool, newShard func(mem int64, buckets int) (Cache, error)) (Store, error) {
	parts := cfg.Partitions
	maxThreads := cfg.MaxThreads
	// The peer server's threads, one per local partition, ride on top of
	// the caller's session budget.
	if cfg.PeerListen != "" {
		if maxThreads == 0 {
			maxThreads = core.DefaultMaxThreads
		}
		maxThreads += parts
		for _, p := range cfg.Peers {
			maxThreads -= len(p.Parts)
		}
	}
	mem, buckets := cfg.MemLimit/int64(parts), max(cfg.Buckets/parts, 1)
	var shardErr error
	rt, err := core.New(core.Config{
		Partitions: parts,
		MaxThreads: maxThreads,
		Peers:      cfg.Peers,
		OpTimeout:  cfg.OpTimeout,
		Chaos:      cfg.Chaos,
		Init: func(p *core.Partition) any {
			c, err := newShard(mem, buckets)
			if err != nil && shardErr == nil {
				shardErr = err
			}
			return c
		},
	})
	if err != nil {
		return nil, err
	}
	// Every failure below releases the runtime the construction claimed:
	// callers only ever see the error, so they cannot close it themselves.
	if shardErr != nil {
		_ = rt.Close()
		return nil, fmt.Errorf("mcd: shard init: %w", shardErr)
	}
	// Register the cache ops under their wire codes so this store can
	// delegate to peers and serve for them. Single-process stores just never
	// use the table.
	for _, reg := range []struct {
		code uint16
		op   core.Op
	}{{opCodeGet, opGet}, {opCodeSet, opSet}, {opCodeDelete, opDelete}} {
		if err := rt.RegisterOp(reg.code, reg.op); err != nil {
			_ = rt.Close()
			return nil, fmt.Errorf("mcd: registering op %d: %w", reg.code, err)
		}
	}
	st := &dpsStore{rt: rt, localGets: localGets, drainTimeout: cfg.DrainTimeout}
	if cfg.PeerListen != "" {
		ln, err := net.Listen("tcp", cfg.PeerListen)
		if err != nil {
			_ = rt.Close()
			return nil, fmt.Errorf("mcd: peer listen: %w", err)
		}
		ps, err := rt.NewPeerServer(ln)
		if err != nil {
			ln.Close()
			_ = rt.Close()
			return nil, fmt.Errorf("mcd: peer server: %w", err)
		}
		st.ps = ps
		go ps.Serve()
	}
	return st, nil
}

// dpsStore fronts the DPS-partitioned cache. Its sessions are registered
// DPS threads, and nothing else serves: a session serves its locality while it
// waits inside a call (§4.3), and between calls it is Idle, so an operation
// toward a locality whose sessions are all between calls runs on its sender,
// at issue (core.Thread.Idle). The peer server's pooled threads are Idle too.
type dpsStore struct {
	rt           *core.Runtime
	localGets    bool
	ps           *core.PeerServer
	drainTimeout time.Duration
	closeOnce    sync.Once
	closeErr     error
}

// PeerAddr reports the bound peer-serving address ("" when the store was
// opened without PeerListen).
func (s *dpsStore) PeerAddr() string {
	if s.ps == nil {
		return ""
	}
	return s.ps.Addr().String()
}

// BouncePeer restarts the peer listener on its own address after holding
// it down for the given duration (see PeerListener).
func (s *dpsStore) BouncePeer(down time.Duration) error {
	if s.ps == nil {
		return fmt.Errorf("mcd: no peer listener configured")
	}
	addr := s.ps.Addr().String()
	if err := s.ps.Stop(); err != nil {
		return err
	}
	time.Sleep(down)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("mcd: peer rebind %s: %w", addr, err)
	}
	if err := s.ps.Rebind(ln); err != nil {
		ln.Close()
		return err
	}
	go s.ps.Serve()
	return nil
}

// Session registers a thread on the least-loaded locality.
func (s *dpsStore) Session() (Session, error) {
	t, err := s.rt.Register()
	if err != nil {
		return nil, err
	}
	t.Idle()
	return &dpsSession{t: t, localGets: s.localGets}, nil
}

// Len sums shard item counts directly (quiescent use, like Cache.Len): a
// registration-free gauge read that cannot fail at the thread budget.
// Peer-owned partitions have no shard here and are skipped — Len counts
// this process's items.
func (s *dpsStore) Len() int {
	n := 0
	for i := 0; i < s.rt.Partitions(); i++ {
		if p := s.rt.Partition(i); !p.Remote() {
			n += p.Data().(Cache).Len()
		}
	}
	return n
}

func (s *dpsStore) Metrics() obs.Snapshot { return s.rt.Metrics() }

// Runtime exposes the store's DPS runtime.
func (s *dpsStore) Runtime() *core.Runtime { return s.rt }

// Close stops the peer server, then shuts the runtime down gracefully —
// draining in-flight delegations within DrainTimeout.
func (s *dpsStore) Close() error {
	s.closeOnce.Do(func() {
		if s.ps != nil {
			s.ps.Close()
		}
		_, s.closeErr = s.rt.Shutdown(s.drainTimeout)
	})
	return s.closeErr
}

// dpsSession is a registered, locality-bound accessor (one goroutine at a
// time, like core.Thread): the dps variants' Session and Waver. Its errors
// are the runtime's — core.ErrTimeout past Config.OpTimeout, core.ErrClosed
// after shutdown, core.ErrPeerDown — except a Set's verdict (cache full,
// oversized value).
//
// A session serves its locality only while it waits inside a call, so outside
// its calls it is under core.Thread.Idle's mark: from registration on and at
// the end of every method. An operation toward a locality whose sessions are
// all between calls therefore runs on its sender, and no other thread has to
// serve a session that sits unused.
type dpsSession struct {
	t         *core.Thread
	localGets bool
	// wave holds the completion records of the gets Wave has in flight.
	wave [MaxWave]core.Completion
}

// Close drains outstanding asynchronous sets and unregisters the session.
func (h *dpsSession) Close() { h.t.Unregister() }

// Drain waits for the session's asynchronous sets to complete.
func (h *dpsSession) Drain() {
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

func boolU(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Get fetches key's value: synchronous delegation to the owning locality,
// or local execution on dps-parsec.
func (h *dpsSession) Get(key uint64) ([]byte, bool, error) {
	defer h.t.Idle()
	var res core.Result
	if h.localGets {
		res = h.t.ExecuteLocal(key, opGet, core.Args{})
	} else {
		res = h.t.ExecuteSync(key, opGet, core.Args{})
	}
	v, ok := valOK(res)
	return v, ok, res.Err
}

// Wave runs ops as gets with all of them in flight at once: every get is
// issued (gets toward one partition share a burst slot, peer-owned ones a
// wire frame) before the first is awaited, then the results are
// collected in request order. At most min(MaxWave, ring depth) gets are in
// flight — a completion holds its ring slot until collected, so a deeper
// wave could wait on a slot only this session can free — and longer op lists
// run as consecutive waves. Each issue and each collect is a call of its own
// under OpTimeout.
func (h *dpsSession) Wave(ops []WaveOp) {
	defer h.t.Idle()
	depth := min(MaxWave, h.t.Runtime().RingDepth())
	for len(ops) > 0 {
		n := min(len(ops), depth)
		h.collectWave(ops[:n], h.issueWave(ops[:n]))
		ops = ops[n:]
	}
}

// issueWave starts every op's get. dps-parsec lookups of locally-owned
// partitions run here, on the calling thread; the returned mask has bit i set
// for each op answered that way.
func (h *dpsSession) issueWave(ops []WaveOp) (answered uint16) {
	rt := h.t.Runtime()
	for i := range ops {
		o := &ops[i]
		if h.localGets && !rt.PartitionForKey(o.Key).Remote() {
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
func (h *dpsSession) collectWave(ops []WaveOp, answered uint16) {
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
func (h *dpsSession) Set(key uint64, val []byte) error {
	defer h.t.Idle()
	return h.t.ExecuteSync(key, opSet, core.Args{P: val}).Err
}

// SetAsync stores key->val asynchronously (fire-and-forget delegation).
// Ordering to the same partition is FIFO, so this session's later Get of the
// same key observes the set (§3.3 read-your-writes). Errors from
// asynchronous sets (cache full, oversized value) are dropped; use Set when
// the caller must observe them. Flush publishes buffered sets, Drain awaits
// them. The set may stay buffered past the call, which consecutive sets to
// the same partition pack beside; val is the runtime's until the set has
// run, so the caller must not modify it before Drain returns.
func (h *dpsSession) SetAsync(key uint64, val []byte) {
	defer h.t.Idle()
	h.t.ExecuteAsync(key, opSet, core.Args{P: val})
}

// Flush publishes this session's buffered asynchronous sets without waiting
// for their execution.
func (h *dpsSession) Flush() {
	defer h.t.Idle()
	h.t.Flush()
}

// Delete removes key (synchronous), reporting whether it was present.
func (h *dpsSession) Delete(key uint64) (bool, error) {
	defer h.t.Idle()
	res := h.t.ExecuteSync(key, opDelete, core.Args{})
	return res.U == 1, res.Err
}
