// Package dpsds applies the DPS runtime to the repository's concurrent
// data-structures, reproducing the §5.2 integration: each namespace
// partition holds one instance of an existing concurrent set (list, BST or
// skip list), operations route to the owning locality, and — as the paper
// reports for the porting effort — the wrapping needs no changes to the
// wrapped structure at all.
//
// Two usage styles are provided:
//
//   - Registered handles (Set.Register), the paper's model: each worker
//     goroutine holds a Handle bound to a locality and serves peer requests
//     while it waits. Use this on performance paths.
//   - Direct facade methods (Set.Lookup/Insert/Remove), which register a
//     transient handle per call. These make a DPS set a drop-in dstest.Set
//     for the shared test battery and for casual callers.
package dpsds

import (
	"fmt"
	"sort"

	"dps/internal/chaos"
	"dps/internal/core"
)

// Inner is the concurrent sorted-set contract a partition shard must meet
// (structurally identical to dstest.Set).
type Inner interface {
	Lookup(key uint64) (uint64, bool)
	Insert(key, val uint64) bool
	Remove(key uint64) bool
	Size() int
}

// innerKeys is implemented by shards that can enumerate sorted keys.
type innerKeys interface {
	Keys() []uint64
}

// Config parameterizes a DPS-wrapped set.
type Config struct {
	// Partitions is the locality count (one shard per locality).
	Partitions int
	// NewShard builds one partition's underlying concurrent set.
	NewShard func() Inner
	// LocalReads executes Lookup on the calling thread via the §4.4
	// local-execution optimization instead of delegating. Safe only when
	// the shard's read path tolerates cross-locality readers (lock-free
	// or optimistic reads) — which all sets in this repository do.
	LocalReads bool
	// MaxThreads bounds concurrent handles (defaults per core.Config).
	MaxThreads int
	// Chaos installs a fault injector on the underlying runtime (see
	// core.Config.Chaos). For chaos benchmarking, not production use.
	Chaos *chaos.Injector
}

// Set is a DPS-partitioned sorted set.
type Set struct {
	rt         *core.Runtime
	localReads bool
}

// NewSet creates the partitioned set. Validation errors follow the same
// wording as core.Config.setDefaults.
func NewSet(cfg Config) (*Set, error) {
	if cfg.Partitions < 1 {
		return nil, fmt.Errorf("dpsds: Partitions must be >= 1, got %d", cfg.Partitions)
	}
	if cfg.NewShard == nil {
		return nil, fmt.Errorf("dpsds: NewShard must be non-nil")
	}
	rt, err := core.New(core.Config{
		Partitions: cfg.Partitions,
		MaxThreads: cfg.MaxThreads,
		Chaos:      cfg.Chaos,
		Init:       func(p *core.Partition) any { return cfg.NewShard() },
	})
	if err != nil {
		return nil, err
	}
	return &Set{rt: rt, localReads: cfg.LocalReads}, nil
}

// Runtime exposes the underlying DPS runtime (for metrics and tuning).
func (s *Set) Runtime() *core.Runtime { return s.rt }

// Handle is a registered, locality-bound accessor. Like core.Thread, a
// Handle must be used by one goroutine at a time.
type Handle struct {
	t   *core.Thread
	set *Set
}

// Register binds the calling goroutine to the least-loaded locality.
func (s *Set) Register() (*Handle, error) {
	t, err := s.rt.Register()
	if err != nil {
		return nil, err
	}
	return &Handle{t: t, set: s}, nil
}

// RegisterAt binds the calling goroutine to locality loc.
func (s *Set) RegisterAt(loc int) (*Handle, error) {
	t, err := s.rt.RegisterAt(loc)
	if err != nil {
		return nil, err
	}
	return &Handle{t: t, set: s}, nil
}

// Unregister releases the handle.
func (h *Handle) Unregister() { h.t.Unregister() }

// Serve processes requests pending on the handle's locality (the §4.4
// liveness interface).
func (h *Handle) Serve() int { return h.t.Serve() }

// The delegated operations. They run on a thread of the key's locality.

func opLookup(p *core.Partition, key uint64, _ *core.Args) core.Result {
	v, ok := p.Data().(Inner).Lookup(key)
	return core.Result{U: v, P: ok}
}

func opInsert(p *core.Partition, key uint64, args *core.Args) core.Result {
	return core.Result{P: p.Data().(Inner).Insert(key, args.U[0])}
}

func opRemove(p *core.Partition, key uint64, _ *core.Args) core.Result {
	return core.Result{P: p.Data().(Inner).Remove(key)}
}

func opSize(p *core.Partition, _ uint64, _ *core.Args) core.Result {
	return core.Result{U: uint64(p.Data().(Inner).Size())}
}

func opKeys(p *core.Partition, _ uint64, _ *core.Args) core.Result {
	ik, ok := p.Data().(innerKeys)
	if !ok {
		return core.Result{Err: fmt.Errorf("dpsds: shard %T cannot enumerate keys", p.Data())}
	}
	return core.Result{P: ik.Keys()}
}

// Lookup reports whether key is present and returns its value.
func (h *Handle) Lookup(key uint64) (uint64, bool) {
	var res core.Result
	if h.set.localReads {
		res = h.t.ExecuteLocal(key, opLookup, core.Args{})
	} else {
		res = h.t.ExecuteSync(key, opLookup, core.Args{})
	}
	return res.U, res.P.(bool)
}

// Insert adds key->val if absent.
func (h *Handle) Insert(key, val uint64) bool {
	res := h.t.ExecuteSync(key, opInsert, core.Args{U: [4]uint64{val}})
	return res.P.(bool)
}

// InsertAsync adds key->val without waiting for completion (§4.4
// asynchronous execution). Call Drain before depending on its visibility
// from other threads; this thread's own later operations on the key are
// ordered after it.
func (h *Handle) InsertAsync(key, val uint64) {
	h.t.ExecuteAsync(key, opInsert, core.Args{U: [4]uint64{val}})
}

// Remove deletes key if present.
func (h *Handle) Remove(key uint64) bool {
	res := h.t.ExecuteSync(key, opRemove, core.Args{})
	return res.P.(bool)
}

// RemoveAsync deletes key without waiting for completion.
func (h *Handle) RemoveAsync(key uint64) {
	h.t.ExecuteAsync(key, opRemove, core.Args{})
}

// Drain blocks until the handle's asynchronous operations have executed.
func (h *Handle) Drain() { h.t.Drain() }

// Size sums shard sizes with a broadcast (not linearizable, like any DPS
// range operation).
func (h *Handle) Size() int {
	res := h.t.ExecuteAll(opSize, core.Args{}, func(rs []core.Result) core.Result {
		var sum uint64
		for _, r := range rs {
			sum += r.U
		}
		return core.Result{U: sum}
	})
	return int(res.U)
}

// Keys merges the shards' sorted key sets (not linearizable).
func (h *Handle) Keys() []uint64 {
	res := h.t.ExecuteAll(opKeys, core.Args{}, func(rs []core.Result) core.Result {
		var all []uint64
		for _, r := range rs {
			if r.Err != nil {
				return core.Result{Err: r.Err}
			}
			all = append(all, r.P.([]uint64)...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		return core.Result{P: all}
	})
	if res.Err != nil {
		return nil
	}
	return res.P.([]uint64)
}

// --- transient facade -------------------------------------------------------

// withHandle runs fn on a transient handle. It makes Set itself satisfy the
// concurrent-set interface for tests and casual use; hot paths should hold
// registered handles instead.
func (s *Set) withHandle(fn func(h *Handle)) {
	h, err := s.Register()
	if err != nil {
		panic(fmt.Sprintf("dpsds: transient register failed: %v", err))
	}
	defer h.Unregister()
	fn(h)
}

// Lookup reports whether key is present (transient-handle facade).
func (s *Set) Lookup(key uint64) (v uint64, ok bool) {
	s.withHandle(func(h *Handle) { v, ok = h.Lookup(key) })
	return v, ok
}

// Insert adds key->val if absent (transient-handle facade).
func (s *Set) Insert(key, val uint64) (ok bool) {
	s.withHandle(func(h *Handle) { ok = h.Insert(key, val) })
	return ok
}

// Remove deletes key if present (transient-handle facade).
func (s *Set) Remove(key uint64) (ok bool) {
	s.withHandle(func(h *Handle) { ok = h.Remove(key) })
	return ok
}

// Size sums shard sizes (transient-handle facade).
func (s *Set) Size() (n int) {
	s.withHandle(func(h *Handle) { n = h.Size() })
	return n
}

// Keys merges shard keys in ascending order (transient-handle facade).
func (s *Set) Keys() (keys []uint64) {
	s.withHandle(func(h *Handle) { keys = h.Keys() })
	return keys
}
