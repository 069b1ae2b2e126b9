package core

import (
	"dps/internal/obs"
	"dps/internal/ring"
)

// Per-locality payload arenas. A delegated payload larger than the inline
// burst entry's word arguments has to travel by reference, and before the
// arenas that reference was always a fresh GC-heap allocation made on the
// sending core — so cross-locality payloads crossed sockets via memory no
// locality owns, and the hot store path paid an allocation per operation.
// An arena is a fixed pool of fixed-size buffers owned by the destination
// partition: the sender copies the payload into a buffer it acquires from
// the destination's pool, the entry carries the buffer pointer (pointer
// boxing into Args.P allocates nothing, unlike boxing a []byte header),
// and the serving side returns the buffer to the pool as soon as the
// operation has executed. Payloads that don't fit — oversized, pool
// empty, peer-owned or local destination — fall back to the heap path,
// visible in the ArenaFallbacks counter.

// PayloadBuf is one fixed-size payload buffer owned by a partition's
// arena. Acquire one with Thread.AcquirePayload, copy the payload into
// Bytes, and pass the buffer pointer as Args.P; the runtime returns it to
// the pool after the operation executes, so the executing operation must
// not retain Bytes past its return (copy what it keeps — exactly the
// discipline shard ops already follow for []byte arguments).
type PayloadBuf struct {
	// data is the buffer's fixed backing slice, owned by the arena.
	//
	//dps:owned-by=arena
	data []byte
	// n is the acquired payload length, set by acquire.
	//
	//dps:owned-by=arena
	n   int
	p   *Partition
	idx int
}

// Bytes returns the payload region of the buffer (length as acquired).
// Valid only between AcquirePayload and the executed operation's return.
//
//dps:noalloc via ExecuteSync
//dps:domain=arena
func (b *PayloadBuf) Bytes() []byte { return b.data[:b.n] }

// Partition returns the partition whose arena owns the buffer.
func (b *PayloadBuf) Partition() *Partition { return b.p }

// payloadArena is one partition's pool: a contiguous locality-owned
// backing array carved into stride-aligned buffers, with a padded atomic
// bitmap as the free list (ring.ParkSet doubles as a claimable bitmap:
// Pick is acquire, Set is release — MPMC-safe, so any serving thread can
// release a buffer any sender acquired).
type payloadArena struct {
	free *ring.ParkSet
	bufs []PayloadBuf
}

// arenaBufBytes is the buffer capacity rounded up to a whole number of
// strides, so neighbouring arena buffers never share a cache line.
const arenaBufBytes = (DefaultArenaBufBytes + ring.Stride - 1) &^ (ring.Stride - 1)

// newPayloadArena builds p's pool of DefaultArenaBufs buffers of
// arenaBufBytes each over one contiguous backing array.
func newPayloadArena(p *Partition) *payloadArena {
	a := &payloadArena{
		free: ring.NewParkSet(DefaultArenaBufs),
		bufs: make([]PayloadBuf, DefaultArenaBufs),
	}
	backing := make([]byte, DefaultArenaBufs*arenaBufBytes)
	for i := range a.bufs {
		a.bufs[i] = PayloadBuf{
			data: backing[i*arenaBufBytes : (i+1)*arenaBufBytes : (i+1)*arenaBufBytes],
			p:    p,
			idx:  i,
		}
		a.free.Set(i)
	}
	return a
}

// acquire claims a free buffer sized for an n-byte payload, nil when the
// payload doesn't fit or the pool is empty.
//
//dps:noalloc via ExecuteSync
//dps:domain=arena
func (a *payloadArena) acquire(n int) *PayloadBuf {
	if n > arenaBufBytes {
		return nil
	}
	idx, ok := a.free.Pick()
	if !ok {
		return nil
	}
	b := &a.bufs[idx]
	b.n = n
	return b
}

// release returns a buffer to its pool.
//
//dps:noalloc via ExecuteSync
func (a *payloadArena) release(b *PayloadBuf) {
	a.free.Set(b.idx)
}

// AcquirePayload returns an arena buffer from key's destination locality
// for an n-byte payload, or nil when the payload should take the GC-heap
// path instead: destination local (inline execution never releases
// through the serve path), peer-owned (it has no arena: the wire tier
// requires plain []byte) or without workers, payload oversized, or pool
// empty. The caller copies the payload into Bytes and passes the buffer as
// Args.P of an operation delegated to the same key (or at least the same
// partition); the runtime releases it after the operation executes.
//
//dps:noalloc via ExecuteSync
//dps:domain=sender
func (t *Thread) AcquirePayload(key uint64, n int) *PayloadBuf {
	t.checkLive()
	p := t.partitionFor(key)
	if p.peer != nil || p.id == t.locality || p.workers.Load() == 0 {
		return nil
	}
	b := p.arena.acquire(n)
	if b == nil {
		t.rt.rec.Add(t.id, p.id, obs.ArenaFallbacks, 1)
		return nil
	}
	t.rt.rec.Add(t.id, p.id, obs.ArenaAcquires, 1)
	return b
}

// releasePayload returns an entry's arena buffer, if it carries one, to
// its pool. Called wherever a delegated entry is consumed (the serve,
// rescue, sweep, and inline-execution paths all funnel here) so a buffer
// is back in its pool as soon as its operation has run.
//
//dps:noalloc via ExecuteSync
func releasePayload(args *Args) {
	if b, ok := args.P.(*PayloadBuf); ok {
		args.P = nil
		b.p.arena.release(b)
	}
}

// PayloadBytes unwraps a payload reference argument: the acquired bytes
// of an arena buffer, a plain []byte as-is, nil for anything else.
// Operations that accept byte payloads use it so the same op serves both
// the arena and heap paths (and the wire tier, which delivers []byte).
//
//dps:noalloc via ExecuteSync
func PayloadBytes(p any) []byte {
	switch v := p.(type) {
	case *PayloadBuf:
		return v.Bytes()
	case []byte:
		return v
	default:
		return nil
	}
}
