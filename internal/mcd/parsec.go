package mcd

import (
	"sync"
	"sync/atomic"

	"dps/internal/parsec"
)

// ParSec models the ParSec memcached rewrite (§5.3's "highly customized
// implementation, which replaces slab allocator, LRU list and hash table
// ... with its own"): the get path performs no stores at all — buckets are
// lock-free chains of immutable entries traversed under quiescence, and
// eviction uses a CLOCK second-chance sweep whose reference flags are only
// set when clear (so a hot read-mostly workload stops writing them).
// Updates take a per-bucket lock and retire replaced entries through the
// quiescence domain.
type ParSec struct {
	buckets []psBucket
	mask    uint64
	dom     *parsec.Domain

	// items/memory accounting and the CLOCK hand.
	capBytes int64
	used     atomic.Int64
	hand     atomic.Uint64
	count    atomic.Int64
}

type psBucket struct {
	mu   sync.Mutex // writers only
	head atomic.Pointer[psEntry]
}

// psEntry is an immutable (key, value) binding; replacement swaps the whole
// entry, never mutating value bytes in place.
type psEntry struct {
	key   uint64
	val   []byte
	next  atomic.Pointer[psEntry]
	clock atomic.Bool
	dead  atomic.Bool
}

// ParSecConfig parameterizes a ParSec cache.
type ParSecConfig struct {
	// MemLimit caps stored value bytes (default 64 MiB).
	MemLimit int64
	// Buckets is the bucket count (default 1024, rounded up to 2^k).
	Buckets int
}

// NewParSec creates a ParSec-style cache.
func NewParSec(cfg ParSecConfig) (*ParSec, error) {
	if cfg.MemLimit == 0 {
		cfg.MemLimit = 64 << 20
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 1024
	}
	n := 1
	for n < cfg.Buckets {
		n <<= 1
	}
	return &ParSec{
		buckets:  make([]psBucket, n),
		mask:     uint64(n - 1),
		dom:      parsec.NewDomain(),
		capBytes: cfg.MemLimit,
	}, nil
}

// Domain returns the quiescence domain (threads on hot paths should
// register with it; Get registers transiently otherwise).
func (p *ParSec) Domain() *parsec.Domain { return p.dom }

func (p *ParSec) bucketIdx(key uint64) uint64 {
	h := key * 0x9e3779b97f4a7c15
	return (h >> 32) & p.mask
}

// GetIn is the store-free get path for callers inside a quiescence
// read-side section. The CLOCK flag is only written when it is clear, so a
// stream of gets to a hot item performs no shared stores at all.
func (p *ParSec) GetIn(key uint64) ([]byte, bool) {
	b := &p.buckets[p.bucketIdx(key)]
	for e := b.head.Load(); e != nil; e = e.next.Load() {
		if e.key == key && !e.dead.Load() {
			if !e.clock.Load() {
				e.clock.Store(true)
			}
			return e.val, true
		}
	}
	return nil, false
}

// Get wraps GetIn in a transient quiescence registration.
func (p *ParSec) Get(key uint64) ([]byte, bool) {
	th := p.dom.Register()
	th.Enter()
	v, ok := p.GetIn(key)
	th.Exit()
	th.Unregister()
	return v, ok
}

// Set stores an immutable copy of val under key, evicting via CLOCK while
// over the memory cap.
func (p *ParSec) Set(key uint64, val []byte) error {
	e := &psEntry{key: key, val: append([]byte(nil), val...)}
	// Sized before e is published: once the bucket lock drops, a concurrent
	// Set of the same key may unlink e and its retire callback clear e.val.
	size := int64(len(e.val))
	b := &p.buckets[p.bucketIdx(key)]
	b.mu.Lock()
	// Unlink any existing binding for key.
	removedBytes, _ := p.unlinkLocked(b, key)
	e.next.Store(b.head.Load())
	b.head.Store(e)
	b.mu.Unlock()
	p.used.Add(size - removedBytes)
	p.count.Add(1)
	for p.used.Load() > p.capBytes {
		if !p.evictOne() {
			break
		}
	}
	return nil
}

// unlinkLocked removes key's entry from b (caller holds b.mu), retiring it
// through quiescence. It returns the freed byte count and whether an entry
// was removed.
func (p *ParSec) unlinkLocked(b *psBucket, key uint64) (int64, bool) {
	for pp, e := &b.head, b.head.Load(); e != nil; pp, e = &e.next, e.next.Load() {
		if e.key == key {
			e.dead.Store(true)
			pp.Store(e.next.Load())
			// Record the freed size before retiring: with no active
			// readers the retirement callback runs immediately and
			// clears val.
			freed := int64(len(e.val))
			victim := e
			p.dom.RetireFunc(func() { victim.val = nil })
			p.count.Add(-1)
			return freed, true
		}
	}
	return 0, false
}

// evictOne runs the CLOCK hand over buckets: clear set flags, evict the
// first entry found with a clear flag.
func (p *ParSec) evictOne() bool {
	n := uint64(len(p.buckets))
	for scanned := uint64(0); scanned < 2*n; scanned++ {
		idx := p.hand.Add(1) % n
		b := &p.buckets[idx]
		b.mu.Lock()
		for e := b.head.Load(); e != nil; e = e.next.Load() {
			if e.clock.Load() {
				e.clock.Store(false)
				continue
			}
			freed, _ := p.unlinkLocked(b, e.key)
			b.mu.Unlock()
			p.used.Add(-freed)
			return true
		}
		b.mu.Unlock()
	}
	return false
}

// Delete removes key.
func (p *ParSec) Delete(key uint64) bool {
	b := &p.buckets[p.bucketIdx(key)]
	b.mu.Lock()
	freed, removed := p.unlinkLocked(b, key)
	b.mu.Unlock()
	if removed {
		p.used.Add(-freed)
	}
	return removed
}

// Len counts live entries.
func (p *ParSec) Len() int { return int(p.count.Load()) }

// MemUsed reports live value bytes.
func (p *ParSec) MemUsed() int64 { return p.used.Load() }

var _ Cache = (*ParSec)(nil)
