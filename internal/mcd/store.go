package mcd

import (
	"fmt"
	"sort"
	"time"

	"dps/internal/chaos"
	"dps/internal/core"
	"dps/internal/ffwd"
	"dps/internal/obs"
	"dps/internal/parsec"
)

// Store is the variant-agnostic cache API: one interface implemented by all
// five memcached variants (stock, parsec, ffwd, dps, dps-parsec), so servers
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
	// pending asynchronous sets, Drain awaits them. A store may hold val
	// until the set has run: the caller must not modify it before Drain
	// returns.
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

// setDefaults fills the zero fields and rejects a negative one, before any
// variant is built.
func (c *Config) setDefaults() error {
	if c.Partitions < 0 || c.MemLimit < 0 || c.Buckets < 0 || c.MaxThreads < 0 || c.OpTimeout < 0 || c.DrainTimeout < 0 {
		return fmt.Errorf("mcd: negative config value")
	}
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
	return nil
}

// Variants returns the registered variant names, sorted.
func Variants() []string {
	v := []string{"stock", "parsec", "ffwd", "dps", "dps-parsec"}
	sort.Strings(v)
	return v
}

// Open constructs the named variant behind the Store interface; it is the
// only constructor of a Store. It rejects a negative Config field before
// building any variant. The variants:
//
//	stock      — bucket-locked table, LRU and slab locks (memcached 1.5.x)
//	parsec     — store-free gets under quiescence, CLOCK eviction
//	ffwd       — one dedicated delegation server owning a stock shard
//	dps        — DPS-partitioned stock shards, peer-delegated operations
//	dps-parsec — DPS-partitioned parsec shards with local gets (§5.3)
func Open(variant string, cfg Config) (Store, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	switch variant {
	case "stock":
		c, err := NewStock(StockConfig{MemLimit: cfg.MemLimit, Buckets: cfg.Buckets})
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
		shard, err := NewStock(StockConfig{MemLimit: cfg.MemLimit, Buckets: cfg.Buckets})
		if err != nil {
			return nil, err
		}
		sys, err := ffwd.New(ffwd.Config{Servers: 1, ShardInit: func(int) any { return shard }})
		if err != nil {
			return nil, err
		}
		return &ffwdStore{sys: sys, shard: shard}, nil
	case "dps":
		return openDPS(cfg, false, func(mem int64, buckets int) (Cache, error) {
			return NewStock(StockConfig{MemLimit: mem, Buckets: buckets})
		})
	case "dps-parsec":
		return openDPS(cfg, true, func(mem int64, buckets int) (Cache, error) {
			return NewParSec(ParSecConfig{MemLimit: mem, Buckets: buckets})
		})
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

// ffwdStore is the §5.3 ffwd memcached, "where all get and set operations
// are delegated to a single server without any synchronization": one ffwd
// server owns an unsynchronized stock shard.
type ffwdStore struct {
	sys   *ffwd.System
	shard *Stock
}

func (s *ffwdStore) Session() (Session, error) {
	c, err := s.sys.Register()
	if err != nil {
		return nil, err
	}
	return ffwdSession{c: c}, nil
}
func (s *ffwdStore) Len() int              { return s.shard.Len() }
func (s *ffwdStore) Metrics() obs.Snapshot { return obs.Snapshot{} }
func (s *ffwdStore) Close() error          { s.sys.Close(); return nil }

// ffwdSession is a registered ffwd client. Its channel is a single
// synchronous request slot, so SetAsync completes before returning (its
// error dropped, as the asynchronous contract says) and Flush/Drain are
// no-ops.
type ffwdSession struct{ c *ffwd.Client }

func (s ffwdSession) Get(key uint64) ([]byte, bool, error) {
	v, ok := valOK(s.c.Call(key, ffwdGet, ffwd.Args{}))
	return v, ok, nil
}
func (s ffwdSession) Set(key uint64, val []byte) error {
	return s.c.Call(key, ffwdSet, ffwd.Args{P: val}).Err
}
func (s ffwdSession) SetAsync(key uint64, val []byte) { _ = s.Set(key, val) }
func (s ffwdSession) Delete(key uint64) (bool, error) {
	return s.c.Call(key, ffwdDelete, ffwd.Args{}).U == 1, nil
}
func (s ffwdSession) Flush() {}
func (s ffwdSession) Drain() {}
func (s ffwdSession) Close() { s.c.Unregister() }

func ffwdGet(shard any, key uint64, _ *ffwd.Args) ffwd.Result {
	v, ok := shard.(Cache).Get(key)
	return ffwd.Result{P: v, U: boolU(ok)}
}

func ffwdSet(shard any, key uint64, args *ffwd.Args) ffwd.Result {
	return ffwd.Result{Err: shard.(Cache).Set(key, args.P.([]byte))}
}

func ffwdDelete(shard any, key uint64, _ *ffwd.Args) ffwd.Result {
	return ffwd.Result{U: boolU(shard.(Cache).Delete(key))}
}
