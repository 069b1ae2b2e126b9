package mcd

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dps/internal/chaos"
	"dps/internal/core"
	"dps/internal/obs"
	"dps/internal/parsec"
)

// Store is the variant-agnostic cache API: one interface implemented by all
// four memcached variants (stock, parsec, ffwd, dps, dps-parsec), so servers
// and benchmarks select a distribution strategy by name instead of binding
// to variant-specific structs. The distribution strategy — bucket locks, a
// quiescence domain, a dedicated delegation server, or DPS peer delegation —
// is hidden entirely behind the interface, the shared-object discipline of
// the distributed data-structure literature.
//
// Operations go through per-goroutine Sessions; Store-level methods are the
// shared, registration-free surface.
type Store interface {
	// Session binds the calling goroutine to the store. Every Session must
	// be used by one goroutine at a time and Closed when done. Sessions are
	// how variants acquire their per-thread machinery (a DPS thread, an
	// ffwd client line, a quiescence registration); acquiring one may fail
	// when the variant's thread budget is exhausted.
	Session() (Session, error)
	// Len counts stored items across all shards (quiescent use only; on
	// the partitioned variants it reads shard counters without delegation).
	Len() int
	// Metrics returns the store's runtime activity snapshot. Variants
	// without a DPS runtime return the zero Snapshot.
	Metrics() obs.Snapshot
	// Close releases the variant's resources — the peer server, the DPS
	// runtime (via Runtime.Shutdown), the ffwd servers. Sessions must be
	// Closed first.
	Close() error
}

// Session is a registered, goroutine-exclusive operation handle. The
// synchronous operations return an error slot so the delegated variants can
// surface back-pressure (ErrTimeout under a configured OpTimeout) and
// shutdown (ErrClosed); the in-process variants always return nil errors.
// On the dps variants a session serves its locality only while it waits
// inside a call, so between calls it counts as serving nothing: an operation
// toward a locality whose sessions are all between calls runs on its sender.
// A session that sits unused therefore holds nobody up, and no caller has to
// declare it so.
type Session interface {
	// Get fetches key's value. ok distinguishes a miss from an empty
	// value; err is non-nil only for delegation timeout/shutdown, in which
	// case ok is false but the key's presence is unknown.
	Get(key uint64) (val []byte, ok bool, err error)
	// Set stores key->val synchronously and returns the store's verdict
	// (cache full, oversized value, delegation timeout).
	Set(key uint64, val []byte) error
	// SetAsync stores key->val without waiting for completion. Ordering to
	// the same key from this session is preserved (read-your-writes holds
	// for this session's later Gets); errors are dropped. Flush publishes
	// pending asynchronous sets, Drain awaits them.
	SetAsync(key uint64, val []byte)
	// Delete removes key, reporting whether it was present.
	Delete(key uint64) (bool, error)
	// Flush publishes pending asynchronous sets without waiting for them.
	Flush()
	// Drain blocks until every asynchronous set issued by this session has
	// been applied — the barrier after which other sessions observe them.
	Drain()
	// Close releases the session. The Session must not be used afterwards.
	Close()
}

// MaxWave is the largest wave worth queueing: Wave issues at most this many
// gets before it starts collecting (fewer when the runtime's rings are
// shallower), so a caller that batches up to MaxWave ops gets them all in
// flight at once.
const MaxWave = 16

// WaveOp is one get of a wave: the caller sets Key, Wave fills the rest with
// what Session.Get would have returned.
type WaveOp struct {
	Key uint64
	Val []byte
	OK  bool
	Err error
}

// Waver is the optional Session extension of the variants whose gets are
// delegations (dps, dps-parsec): Wave issues every op's get before awaiting
// any, so the owning localities serve them concurrently and the caller pays
// one wait for the wave instead of one per key. Results land in request
// order; gets of one key keep their order relative to this session's earlier
// sets (per-partition FIFO from one sender). Callers discover it by type
// assertion and fall back to a Get loop — which is what a wave would be on
// the variants that execute gets inline.
type Waver interface {
	Wave(ops []WaveOp)
}

// Config parameterizes Open across all variants. The zero value is usable:
// every field has a default.
type Config struct {
	// Partitions is the locality count of the dps variants (default 4).
	// Ignored by the single-shard variants.
	Partitions int
	// MemLimit caps stored bytes across the whole store (default 64 MiB).
	// Partitioned variants split it evenly across shards.
	MemLimit int64
	// MaxValue is the largest storable value in bytes (default: the
	// variant's own default, 1 MiB for stock shards).
	MaxValue int
	// Buckets is the hash-bucket count across the store (default 1024).
	Buckets int
	// MaxThreads bounds concurrently live Sessions on the delegated
	// variants (default: the runtime default, 128). A dps store serving
	// peers (PeerListen) reserves one more thread slot per local partition
	// for its peer server on top of this.
	MaxThreads int
	// OpTimeout bounds each synchronous delegated operation (dps variants
	// only; it is the runtime's core.Config.OpTimeout): Get, Set, Delete and
	// each get of a Wave return ErrTimeout when the owning locality does not
	// execute the operation in time — the back-pressure signal a network
	// front door turns into SERVER_ERROR. 0 means wait forever.
	OpTimeout time.Duration
	// DrainTimeout bounds Close's runtime shutdown (default 5s).
	DrainTimeout time.Duration
	// Peers hands ownership of some partitions to peer processes (dps
	// variants only): operations on their keys are delegated over TCP
	// through the wire tier. Every process in a cluster must configure
	// the same Partitions count.
	Peers []core.Peer
	// PeerListen, when non-empty, is a host:port this store listens on to
	// serve its locally-owned partitions to peer processes (dps variants
	// only). Use ":0" for an ephemeral port and read it back through the
	// PeerListener interface.
	PeerListen string
	// Chaos installs a fault injector on the dps variants' delegation
	// paths (tests only).
	Chaos *chaos.Injector
}

// PeerListener is implemented by stores serving partitions to peer
// processes (Config.PeerListen); PeerAddr reports the bound address.
// BouncePeer is the controlled peer-restart used by resilience demos: it
// stops the listener, keeps it dark for the given duration, then rebinds
// the same address and resumes serving — local state and the dedup window
// survive, so peers' retried bursts replay instead of re-executing.
type PeerListener interface {
	PeerAddr() string
	BouncePeer(down time.Duration) error
}

func (c *Config) setDefaults() {
	if c.Partitions == 0 {
		c.Partitions = 4
	}
	if c.MemLimit == 0 {
		c.MemLimit = 64 << 20
	}
	if c.Buckets == 0 {
		c.Buckets = 1024
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
}

// Variants returns the registered variant names, sorted.
func Variants() []string {
	v := []string{"stock", "parsec", "ffwd", "dps", "dps-parsec"}
	sort.Strings(v)
	return v
}

// Open constructs the named variant behind the Store interface:
//
//	stock      — bucket-locked table, LRU and slab locks (memcached 1.5.x)
//	parsec     — store-free gets under quiescence, CLOCK eviction
//	ffwd       — one dedicated delegation server owning a stock shard
//	dps        — DPS-partitioned stock shards, peer-delegated operations
//	dps-parsec — DPS-partitioned parsec shards with local gets (§5.3)
func Open(variant string, cfg Config) (Store, error) {
	cfg.setDefaults()
	switch variant {
	case "stock":
		c, err := NewStock(StockConfig{MemLimit: cfg.MemLimit, MaxValue: cfg.MaxValue, Buckets: cfg.Buckets})
		if err != nil {
			return nil, err
		}
		return &stockStore{c: c}, nil
	case "parsec":
		c, err := NewParSec(ParSecConfig{MemLimit: cfg.MemLimit, Buckets: cfg.Buckets})
		if err != nil {
			return nil, err
		}
		return &parsecStore{c: c}, nil
	case "ffwd":
		shard, err := NewStock(StockConfig{MemLimit: cfg.MemLimit, MaxValue: cfg.MaxValue, Buckets: cfg.Buckets})
		if err != nil {
			return nil, err
		}
		f, err := NewFFWD(shard)
		if err != nil {
			return nil, err
		}
		return &ffwdStore{f: f, shard: shard}, nil
	case "dps", "dps-parsec":
		return openDPS(variant == "dps-parsec", cfg)
	default:
		return nil, fmt.Errorf("mcd: unknown variant %q (have %v)", variant, Variants())
	}
}

// ---- stock ----

type stockStore struct{ c *Stock }

func (s *stockStore) Session() (Session, error) { return cacheSession{c: s.c}, nil }
func (s *stockStore) Len() int                  { return s.c.Len() }
func (s *stockStore) Metrics() obs.Snapshot     { return obs.Snapshot{} }
func (s *stockStore) Close() error              { return nil }

// cacheSession adapts any concurrency-safe Cache (stock shards) to the
// Session surface: every operation is a direct call, Flush/Drain are no-ops
// because SetAsync applies immediately.
type cacheSession struct{ c Cache }

func (s cacheSession) Get(key uint64) ([]byte, bool, error) {
	v, ok := s.c.Get(key)
	return v, ok, nil
}
func (s cacheSession) Set(key uint64, val []byte) error { return s.c.Set(key, val) }
func (s cacheSession) SetAsync(key uint64, val []byte)  { _ = s.c.Set(key, val) }
func (s cacheSession) Delete(key uint64) (bool, error)  { return s.c.Delete(key), nil }
func (s cacheSession) Flush()                           {}
func (s cacheSession) Drain()                           {}
func (s cacheSession) Close()                           {}

// ---- parsec ----

type parsecStore struct{ c *ParSec }

func (s *parsecStore) Session() (Session, error) {
	// A session-long quiescence registration makes Get the store-free
	// GetIn path instead of Get's transient register/unregister per call.
	return &parsecSession{c: s.c, th: s.c.Domain().Register()}, nil
}
func (s *parsecStore) Len() int              { return s.c.Len() }
func (s *parsecStore) Metrics() obs.Snapshot { return obs.Snapshot{} }
func (s *parsecStore) Close() error          { return nil }

type parsecSession struct {
	c  *ParSec
	th *parsec.Thread
}

func (s *parsecSession) Get(key uint64) ([]byte, bool, error) {
	s.th.Enter()
	v, ok := s.c.GetIn(key)
	s.th.Exit()
	return v, ok, nil
}
func (s *parsecSession) Set(key uint64, val []byte) error { return s.c.Set(key, val) }
func (s *parsecSession) SetAsync(key uint64, val []byte)  { _ = s.c.Set(key, val) }
func (s *parsecSession) Delete(key uint64) (bool, error)  { return s.c.Delete(key), nil }
func (s *parsecSession) Flush()                           {}
func (s *parsecSession) Drain()                           {}
func (s *parsecSession) Close()                           { s.th.Unregister() }

// ---- ffwd ----

type ffwdStore struct {
	f     *FFWD
	shard *Stock
}

func (s *ffwdStore) Session() (Session, error) {
	h, err := s.f.Register()
	if err != nil {
		return nil, err
	}
	return ffwdSession{h: h}, nil
}
func (s *ffwdStore) Len() int              { return s.shard.Len() }
func (s *ffwdStore) Metrics() obs.Snapshot { return obs.Snapshot{} }
func (s *ffwdStore) Close() error          { s.f.Close(); return nil }

type ffwdSession struct{ h *FFWDHandle }

func (s ffwdSession) Get(key uint64) ([]byte, bool, error) {
	v, ok := s.h.Get(key)
	return v, ok, nil
}
func (s ffwdSession) Set(key uint64, val []byte) error { return s.h.Set(key, val) }
func (s ffwdSession) SetAsync(key uint64, val []byte)  { s.h.SetAsync(key, val) }
func (s ffwdSession) Delete(key uint64) (bool, error)  { return s.h.Delete(key), nil }
func (s ffwdSession) Flush()                           { s.h.Flush() }
func (s ffwdSession) Drain()                           { s.h.Drain() }
func (s ffwdSession) Close()                           { s.h.Unregister() }

// ---- dps / dps-parsec ----

func openDPS(localGets bool, cfg Config) (Store, error) {
	parts := cfg.Partitions
	dcfg := DPSConfig{
		Partitions: parts,
		LocalGets:  localGets,
		MaxThreads: cfg.MaxThreads,
		Peers:      cfg.Peers,
		OpTimeout:  cfg.OpTimeout,
		Chaos:      cfg.Chaos,
	}
	// The peer server's threads, one per local partition, ride on top of
	// the caller's session budget.
	if cfg.PeerListen != "" {
		if dcfg.MaxThreads == 0 {
			dcfg.MaxThreads = core.DefaultMaxThreads
		}
		dcfg.MaxThreads += parts
		for _, p := range cfg.Peers {
			dcfg.MaxThreads -= len(p.Parts)
		}
	}
	perShardMem := cfg.MemLimit / int64(parts)
	perShardBuckets := cfg.Buckets / parts
	if perShardBuckets == 0 {
		perShardBuckets = 1
	}
	if localGets {
		dcfg.NewShard = func() (Cache, error) {
			return NewParSec(ParSecConfig{MemLimit: perShardMem, Buckets: perShardBuckets})
		}
	} else {
		dcfg.NewShard = func() (Cache, error) {
			return NewStock(StockConfig{MemLimit: perShardMem, MaxValue: cfg.MaxValue, Buckets: perShardBuckets})
		}
	}
	d, err := NewDPS(dcfg)
	if err != nil {
		return nil, err
	}
	st := &dpsStore{d: d, drainTimeout: cfg.DrainTimeout}
	if cfg.PeerListen != "" {
		rt := d.Runtime()
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
	d            *DPS
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

func (s *dpsStore) Session() (Session, error) {
	h, err := s.d.Register()
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Len sums shard item counts directly (quiescent use, like Cache.Len): a
// registration-free gauge read that cannot fail at the thread budget.
// Peer-owned partitions have no shard here and are skipped — Len counts
// this process's items; cluster totals go through a Session broadcast.
func (s *dpsStore) Len() int {
	n := 0
	rt := s.d.Runtime()
	for i := 0; i < rt.Partitions(); i++ {
		if p := rt.Partition(i); !p.Remote() {
			n += p.Data().(Cache).Len()
		}
	}
	return n
}

func (s *dpsStore) Metrics() obs.Snapshot { return s.d.Runtime().Metrics() }

// Runtime exposes the store's DPS runtime.
func (s *dpsStore) Runtime() *core.Runtime { return s.d.Runtime() }

// Close stops the peer server, then shuts the runtime down gracefully —
// draining in-flight delegations within DrainTimeout.
func (s *dpsStore) Close() error {
	s.closeOnce.Do(func() {
		if s.ps != nil {
			s.ps.Close()
		}
		_, err := s.d.Runtime().Shutdown(s.drainTimeout)
		s.closeErr = err
	})
	return s.closeErr
}
