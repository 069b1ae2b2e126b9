package core

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"time"
	"unsafe"

	"dps/internal/obs"
	"dps/internal/ring"
	"dps/internal/wire"
)

// This file is the runtime's second delegation tier: partitions owned by
// peer processes. The key→locality map stays the single router — a key
// whose partition carries a peer pointer delegates process→process over
// internal/wire instead of thread→thread over a shared-memory ring, with
// the same completion semantics (and the same ErrTimeout/ErrClosed
// sentinels) the in-process tier has. The in-process hot path pays one
// predictable nil-check (p.peer) for the capability.

// Peer declares one peer process owning a subset of the partitions.
type Peer struct {
	// Addr is the peer's wire listen address (host:port).
	Addr string
	// Parts are the global partition indices the peer owns. They must be
	// disjoint from every other peer's and leave at least one partition
	// local (threads register into local localities).
	Parts []int
	// Timeout bounds wire completions with no explicit deadline (0: wire
	// default). It is the liveness backstop — no rescue path can reach
	// into a peer process, so every wire await must have a bound. It is
	// also the retry budget: a burst whose link died is retransmitted
	// until its publish time plus Timeout. The link's other timings — pool
	// size, heartbeat, redial backoff — are wire constants (DESIGN.md §12).
	Timeout time.Duration
}

// ErrOpNotRegistered is returned when an operation is delegated toward a
// peer-owned partition but was never registered with RegisterOp: a
// function pointer cannot cross a process boundary, only a registered
// code can.
var ErrOpNotRegistered = errors.New("dps: op not registered for remote delegation")

// ErrRemoteArgs is returned when an operation delegated toward a
// peer-owned partition carries a reference argument that is neither nil
// nor a []byte — the only reference form that can cross a process
// boundary.
var ErrRemoteArgs = errors.New("dps: remote delegation requires Args.P nil or []byte")

// opTable is the immutable op registry snapshot: code→op for the serving
// side, funcval→code for the sending side. RegisterOp swaps in a new
// snapshot (copy-on-write), so hot-path lookups are two lock-free map
// reads on a frozen map.
type opTable struct {
	byCode map[uint16]Op
	byPtr  map[uintptr]uint16
}

// fnptr returns the func value's funcval pointer — a stable identity for
// top-level functions, which is why RegisterOp requires them (each
// closure evaluation mints a fresh funcval, so closures would alias or
// miss).
//
//dps:noalloc
func fnptr(op Op) uintptr {
	return *(*uintptr)(unsafe.Pointer(&op))
}

// RegisterOp names op with a wire code so it can be delegated to (and
// served for) peer processes. Both sides of a cluster must register the
// same code→op mapping. op must be a top-level function (not a closure
// or bound method): the sending side resolves ops to codes by function
// identity, and only top-level functions have a stable one. Codes and
// ops must be bijective; re-registering an existing pair is a no-op.
func (rt *Runtime) RegisterOp(code uint16, op Op) error {
	if op == nil {
		return fmt.Errorf("dps: RegisterOp(%d): nil op", code)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	old := rt.optab.Load()
	if prev, ok := old.byCode[code]; ok {
		if fnptr(prev) == fnptr(op) {
			return nil
		}
		return fmt.Errorf("dps: op code %d already registered to a different op", code)
	}
	if prev, ok := old.byPtr[fnptr(op)]; ok {
		return fmt.Errorf("dps: op already registered under code %d", prev)
	}
	next := &opTable{byCode: maps.Clone(old.byCode), byPtr: maps.Clone(old.byPtr)}
	next.byCode[code] = op
	next.byPtr[fnptr(op)] = code
	rt.optab.Store(next)
	return nil
}

// opByCode resolves a wire code to its registered op (nil if unknown).
//
//dps:noalloc
func (rt *Runtime) opByCode(code uint16) Op {
	return rt.optab.Load().byCode[code]
}

// codeOf resolves an op to its wire code.
//
//dps:noalloc
func (rt *Runtime) codeOf(op Op) (uint16, bool) {
	c, ok := rt.optab.Load().byPtr[fnptr(op)]
	return c, ok
}

// Remote reports whether the partition is owned by a peer process.
func (p *Partition) Remote() bool { return p.peer != nil }

// wireRef pairs an outstanding wire token with its destination partition
// for the Drain barrier's accounting.
type wireRef struct {
	tok wire.Tok
	p   *Partition
}

// stageRemote stages one operation toward peer-owned partition p on the
// thread's link to that peer — issue's stage step for the wire tier, as
// pack is for the rings — flushing any open burst on a different link first
// (one open wire burst per thread, mirroring the one open ring burst). A
// burst spans the peer's partitions: an operation toward another partition
// of the same peer joins the open frame, as the frame crosses to a process,
// not to a partition. The
// staged bytes are copied immediately; args may be reused when stageRemote
// returns. A fire-and-forget token joins the Drain barrier: completion
// frames (even for fire ops) are how the sender learns the peer consumed
// the burst.
//
//dps:noalloc via ExecuteSync
func (t *Thread) stageRemote(p *Partition, key uint64, op Op, args *Args, fire bool) (wire.Tok, error) {
	code, ok := t.rt.codeOf(op)
	if !ok {
		return wire.Tok{}, ErrOpNotRegistered
	}
	var data []byte
	if args.P != nil {
		if data, ok = args.P.([]byte); !ok {
			return wire.Tok{}, ErrRemoteArgs
		}
	}
	l := t.links[p.peerIdx]
	if t.wopen != nil && t.wopen != l {
		t.wopen.Flush()
	}
	tok, err := l.Stage(ring.StagedOp{
		Part: p.id,
		Code: code,
		Key:  key,
		U:    args.U,
		Data: data,
		Fire: fire,
	})
	if err != nil {
		t.wopen = nil
		return wire.Tok{}, err
	}
	t.wopen = l
	t.rt.rec.Add(t.id, p.id, obs.RemoteOps, 1)
	t.rt.rec.Add(t.id, p.id, obs.RemoteBytes, uint64(wire.ReqOpFixed+len(data)))
	if fire {
		//dps:alloc-ok amortized growth of the wire outstanding list, same budget as noteOutstanding
		t.woutstanding = append(t.woutstanding, wireRef{tok: tok, p: p})
		if len(t.woutstanding) >= wireDrainHighWater {
			t.drainWire()
		}
	}
	return tok, nil
}

// flushWire publishes the thread's open wire burst, if any.
//
//dps:noalloc via ExecuteSync
func (t *Thread) flushWire() {
	l := t.wopen
	t.wopen = nil
	if l != nil {
		l.Flush()
	}
}

// wireDrainHighWater bounds the outstanding wire-token list: past it the
// sender collects completions before staging more, the wire tier's
// back-pressure (the analogue of the ring-full wait).
const wireDrainHighWater = 4 * wire.MaxBurst

// drainWire awaits every outstanding wire token. The barrier never wedges
// on a dead peer: a closed link resolves its tokens with errors, the bound
// on every wait for a peer process ends the rest, and the list is finite. A
// token given up on counts as Abandoned.
func (t *Thread) drainWire() {
	t.flushWire()
	for i := range t.woutstanding {
		r := &t.woutstanding[i]
		if !t.awaitServed(r.p, target{tok: r.tok}) {
			t.rt.rec.Add(t.id, r.p.id, obs.Abandoned, 1)
		}
		r.tok.Finish()
		*r = wireRef{}
	}
	t.woutstanding = t.woutstanding[:0]
}

// PeerServer is the accept side of the wire tier for one runtime: a
// wire.Server — the listener lifecycle (Serve, Addr, Stop, Rebind) and the
// exactly-once dedup window — whose handler sends each decoded burst into
// this process's delegation hierarchy from a thread of its own, as a local
// sender would. An operation toward the thread's own locality, or toward one
// nobody serves, runs inline; one toward a locality with a running thread
// crosses that locality's ring and is served there. A cross-process operation
// is indistinguishable from a cross-locality one by the time it touches a
// shard.
type PeerServer struct {
	*wire.Server
	rt *Runtime
	// pool holds the threads no burst is using, each under an Idle mark, so
	// a locality whose only thread is pooled is unattended.
	pool chan *Thread
}

// NewPeerServer wraps ln with a wire server for rt's local partitions,
// registering one thread per local partition for the pool bursts borrow
// from. Call Serve to accept; Close before (or after) Runtime.Shutdown.
func (rt *Runtime) NewPeerServer(ln net.Listener) (*PeerServer, error) {
	ps := &PeerServer{rt: rt, pool: make(chan *Thread, len(rt.parts))}
	var owned []int
	for _, p := range rt.parts {
		if p.peer != nil {
			continue
		}
		t, err := rt.RegisterAt(p.id)
		if err != nil {
			ps.unregisterPool()
			return nil, err
		}
		t.Idle()
		ps.pool <- t
		owned = append(owned, p.id)
	}
	ps.Server = wire.NewServer(ln, len(rt.parts), owned, ps)
	rt.mu.Lock()
	rt.servers = append(rt.servers, ps.Server)
	rt.mu.Unlock()
	return ps, nil
}

// Close stops the wire server for good and unregisters the pool's threads;
// once the server is closed no burst holds one.
func (ps *PeerServer) Close() error {
	err := ps.Server.Close()
	ps.unregisterPool()
	return err
}

func (ps *PeerServer) unregisterPool() {
	for len(ps.pool) > 0 {
		(<-ps.pool).Unregister()
	}
}

// Apply executes one decoded burst — the wire tier's serve step, which the
// wire server calls at most once per (src, seq). It borrows any pooled
// thread and runs the operations through the one send path, each toward
// its entry's partition, issuing them all first and then collecting them in
// order, so the ones that cross a ring share its slots; the thread goes
// back to the pool under an Idle mark. An entry's partition is its own, not
// its key's hash: ExecutePartition and ExecuteAll send keys of other
// partitions. An entry toward a partition this process does not serve gets
// errNotServed and the others still apply. A panic crosses back as the
// operation's OpPanicError, counted once in Panics; a fire operation's
// result is dropped.
func (ps *PeerServer) Apply(_ uint64, _ uint32, _ int, req []wire.ReqOp, resp []wire.RespOp) []wire.RespOp {
	rt := ps.rt
	t := <-ps.pool
	defer func() {
		t.Idle()
		ps.pool <- t
	}()
	// A thread holds at most RingDepth unconsumed completions toward one
	// partition (one per slot when bursts are split), so longer bursts are
	// collected a ring's worth at a time; that caps the completions toward
	// any one partition, however the entries mix them.
	var cs [wire.MaxBurst]Completion
	for len(req) > 0 {
		n := min(len(req), len(cs), rt.cfg.RingDepth)
		for i := range req[:n] {
			ps.issue(t, &cs[i], &req[i])
		}
		for i := range req[:n] {
			resp = append(resp, collect(&cs[i], req[i].Fire))
		}
		req = req[n:]
	}
	return resp
}

// errNotServed answers an entry toward a partition this process does not
// serve.
var errNotServed = errors.New("dps: partition not served here")

// issue sends one decoded operation toward its entry's partition on t —
// checkLive, then Thread.issue — as a synchronous one whatever its fire
// flag: the burst's response frame is the sender's proof that it applied. A
// panic out of the call is checkLive's ErrClosed after Shutdown, or the
// operation's own, raised while it ran inline and so not yet counted; c is
// then done with it.
func (ps *PeerServer) issue(t *Thread, c *Completion, r *wire.ReqOp) {
	if int(r.Part) >= len(ps.rt.parts) || ps.rt.parts[r.Part].peer != nil {
		*c = Completion{t: t, res: Result{Err: errNotServed}, done: true}
		return
	}
	p := ps.rt.parts[r.Part]
	defer func() {
		if rec := recover(); rec != nil {
			err := ErrClosed
			if rec != ErrClosed {
				ps.rt.rec.Add(t.id, p.id, obs.Panics, 1)
				err = OpPanicError{Value: rec}
			}
			*c = Completion{t: t, p: p, res: Result{Err: err}, done: true}
		}
	}()
	t.checkLive()
	op := ps.rt.opByCode(r.Code)
	if op == nil {
		*c = Completion{t: t, p: p, res: Result{Err: ErrOpNotRegistered}, done: true}
		return
	}
	args := Args{U: r.U}
	if len(r.Data) > 0 {
		args.P = r.Data
	}
	t.issue(c, p, r.Key, op, args, false, nil)
}

// collect awaits c with no deadline, as Drain does, and returns its result as
// the wire response, which for a fire operation, whose result nobody reads,
// is the completion alone. The wait has no deadline because a decoded
// operation's Data aliases the frame reader's buffer: an operation given up
// on would apply reused bytes later. The peer's own bound on the call covers
// its caller. A panic out of the wait is the operation's, re-raised by
// Completion.finish after the serving thread counted it.
func collect(c *Completion, fire bool) (out wire.RespOp) {
	defer func() {
		if rec := recover(); rec != nil && !fire {
			out = wire.RespOp{Err: OpPanicError{Value: rec}.Error()}
		}
	}()
	res := c.await(nil)
	if fire {
		return wire.RespOp{}
	}
	out.U = res.U
	if res.P != nil {
		b, ok := res.P.([]byte)
		if !ok {
			return wire.RespOp{Err: "dps: remote op returned non-[]byte reference result"}
		}
		out.Data, out.HasData = b, true
	}
	if res.Err != nil {
		out.Err = res.Err.Error()
	}
	return out
}

// OpPanicError carries a delegated operation's panic back across the
// process boundary as an error (identity cannot cross; the rendered
// value does).
type OpPanicError struct{ Value any }

func (e OpPanicError) Error() string { return fmt.Sprintf("dps: remote op panicked: %v", e.Value) }

// peersFromConfig validates Config.Peers and binds peer-owned
// partitions. Called by New with all partitions constructed.
func (rt *Runtime) peersFromConfig() error {
	owner := make(map[int]int)
	for i, pc := range rt.cfg.Peers {
		wp, err := wire.NewPeer(i, wire.PeerConfig{
			Addr:       pc.Addr,
			Parts:      pc.Parts,
			Timeout:    pc.Timeout,
			Partitions: len(rt.parts),
			Chaos:      rt.chaos,
		})
		if err != nil {
			return err
		}
		for _, id := range pc.Parts {
			if prev, dup := owner[id]; dup {
				return fmt.Errorf("dps: partition %d claimed by peers %d and %d", id, prev, i)
			}
			owner[id] = i
			rt.parts[id].peer = wp
			rt.parts[id].peerIdx = i
		}
		rt.peers = append(rt.peers, wp)
	}
	if len(owner) == len(rt.parts) {
		return fmt.Errorf("dps: all %d partitions are peer-owned; at least one must be local", len(rt.parts))
	}
	return nil
}

// Peers returns the number of configured peer processes.
func (rt *Runtime) Peers() int { return len(rt.peers) }

// PeerStats snapshots peer i's link counters.
func (rt *Runtime) PeerStats(i int) obs.PeerMetrics { return rt.peers[i].Stats() }
