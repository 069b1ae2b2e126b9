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
	// Close releases the variant's resources — dedicated serving threads,
	// the DPS runtime (via Runtime.Shutdown), the ffwd servers. Sessions
	// must be Closed first.
	Close() error
}

// Session is a registered, goroutine-exclusive operation handle. The
// synchronous operations return an error slot so the delegated variants can
// surface back-pressure (ErrTimeout under a configured OpTimeout) and
// shutdown (ErrClosed); the in-process variants always return nil errors.
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
	// variants (default: the runtime default, 128). The dps variants
	// reserve Servers additional thread slots on top of this.
	MaxThreads int
	// Servers is the number of dedicated serving goroutines the dps
	// variants run so delegations complete promptly even when every
	// session is idle (e.g. parked in a network server's handle pool).
	// Default: one per partition. Negative: none — then delegations are
	// only served by sessions that are themselves waiting.
	Servers int
	// PinServers pins each dedicated serving goroutine's OS thread to a
	// CPU owned by its locality (dps variants, Linux only; a no-op
	// elsewhere), keeping a partition's shard hot in one core's cache.
	PinServers bool
	// OpTimeout bounds each synchronous delegated operation (dps variants
	// only; it is the runtime's core.Config.OpTimeout): Get, Set, Delete and
	// each get of a Wave return ErrTimeout when the owning locality does not
	// execute the operation in time — the back-pressure signal a network
	// front door turns into SERVER_ERROR. 0 means wait forever.
	OpTimeout time.Duration
	// DrainTimeout bounds Close's runtime shutdown (default 5s).
	DrainTimeout time.Duration
	// LocalGets forces the DPS-ParSec local-get configuration; implied by
	// the "dps-parsec" variant name.
	LocalGets bool
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
		return openDPS(variant == "dps-parsec" || cfg.LocalGets, cfg)
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
		PinServers: cfg.PinServers,
		OpTimeout:  cfg.OpTimeout,
		Chaos:      cfg.Chaos,
	}
	localParts := parts
	for _, p := range cfg.Peers {
		localParts -= len(p.Parts)
	}
	servers := cfg.Servers
	if servers == 0 {
		servers = localParts
	}
	if servers < 0 {
		servers = 0
	}
	if dcfg.MaxThreads == 0 {
		dcfg.MaxThreads = 128
	}
	// The dedicated servers — and the peer server's per-partition applier
	// threads — ride on top of the caller's session budget.
	dcfg.MaxThreads += servers
	if cfg.PeerListen != "" {
		dcfg.MaxThreads += localParts
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
	st := &dpsStore{
		d:            d,
		drainTimeout: cfg.DrainTimeout,
		stop:         make(chan struct{}),
	}
	// The serving crew binds to locally-owned partitions only — a peer's
	// partitions have no shard (or ring) in this process to serve.
	rt := d.Runtime()
	var local []int
	for i := 0; i < rt.Partitions(); i++ {
		if !rt.Partition(i).Remote() {
			local = append(local, i)
		}
	}
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
	// Register the dedicated serving handles synchronously — before any
	// session exists — so every partition has a worker from the first
	// operation on (otherwise early operations take the empty-locality
	// inline fallback, a scheduling hazard on small machines). A partial
	// failure releases the handles already claimed.
	handles := make([]*DPSHandle, 0, servers)
	for i := 0; i < servers && len(local) > 0; i++ {
		h, err := d.RegisterAt(local[i%len(local)])
		if err != nil {
			for _, prev := range handles {
				prev.Close()
			}
			if st.ps != nil {
				st.ps.Close()
			}
			return nil, fmt.Errorf("mcd: registering serving thread %d: %w", i, err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		st.wg.Add(1)
		go st.serveLoop(h)
	}
	return st, nil
}

// dpsStore fronts the DPS-partitioned cache: sessions are registered DPS
// threads, and a small crew of dedicated serving goroutines keeps
// delegations flowing when sessions sit idle (a network server parks its
// session pool between request batches; without the crew a parked pool
// would stall every remote operation until the stall detector trips).
type dpsStore struct {
	d            *DPS
	ps           *core.PeerServer
	drainTimeout time.Duration
	stop         chan struct{}
	wg           sync.WaitGroup
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

// serveLoopPark bounds how long a serving thread stays parked with no
// wake: senders wake it directly through the doorbell path, so this is
// only the staleness bound on lost wakes — and the worst-case latency of
// Close observing the stop signal.
const serveLoopPark = 50 * time.Millisecond

// serveLoop is one dedicated serving thread: doorbell-driven serve passes
// that park between requests (core.Thread.ServeWait), so an idle store
// burns no CPU at all — senders wake a parked server directly when they
// publish a burst. With Config.PinServers the loop first pins its OS
// thread to a CPU owned by its locality; pinning here (not at
// registration) matters because the handle was registered on the opening
// goroutine, and affinity belongs to the goroutine that serves.
func (s *dpsStore) serveLoop(h *DPSHandle) {
	defer s.wg.Done()
	defer h.Close()
	h.Pin()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		h.ServeWait(serveLoopPark)
	}
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

// Close stops the serving crew and the peer server, then shuts the
// runtime down gracefully — draining in-flight delegations within
// DrainTimeout.
func (s *dpsStore) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		if s.ps != nil {
			s.ps.Close()
		}
		_, err := s.d.Runtime().Shutdown(s.drainTimeout)
		s.closeErr = err
	})
	return s.closeErr
}
