package wire

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"dps/internal/ring"
)

// Canonical sentinel texts: the wire carries errors as strings, and
// these two rehydrate to their canonical identities (ring.ErrClosed,
// ring.ErrTimeout) on the receiving side so errors.Is keeps working
// across the process boundary.
var (
	closedText   = ring.ErrClosed.Error()
	timeoutText  = ring.ErrTimeout.Error()
	peerDownText = ring.ErrPeerDown.Error()
)

// errString flattens an operation error for the wire.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// toError rehydrates a wire error string, mapping the canonical sentinel
// texts back to their identities.
func toError(s string) error {
	switch s {
	case "":
		return nil
	case closedText:
		return ring.ErrClosed
	case timeoutText:
		return ring.ErrTimeout
	case peerDownText:
		return ring.ErrPeerDown
	}
	return OpError(s)
}

// Pending is one in-flight burst: the sender-private completion record
// the response frame (or a link failure) resolves. It is the wire tier's
// analogue of the in-process tier's published slot — results ride back
// in the same container the burst went out in.
type Pending struct {
	pc  *pconn
	seq uint32
	gen uint64

	// frame is the fully encoded request frame, owned by the burst from
	// Flush until it resolves (a link failure may need to retransmit it
	// verbatim — same seq, same bytes).
	frame []byte

	// deadline is the retry budget: publish time + the peer's Timeout.
	// A queued burst past it fails instead of retransmitting. attempts
	// counts transmissions (mu-guarded, like the queue).
	deadline time.Time
	attempts int

	// n is the number of operations in the burst; res[:n] receive their
	// results when the burst resolves.
	n   int32
	res [MaxBurst]ring.Result

	// state is 0 while in flight and 1 once resolved; done is closed at
	// resolve time for blocking awaiters. Results are published before
	// state flips, so a Ready poll that observes state==1 may read res.
	state atomic.Uint32
	done  chan struct{}

	// consumed counts tokens whose Await has returned. When all n have
	// been consumed and the burst never resolved (a lost frame), the
	// burst is forgotten so the pending table cannot grow without bound.
	consumed atomic.Int32

	// wake/wslot name the staging thread's park slot (Link.WakeOn), woken
	// when the burst resolves. Nil for a link nobody parks on.
	wake  *ring.Parker
	wslot int

	// resent is set by the redialer before it first writes the frame, and
	// ordered before any resolve by the pending-table lock. Such a frame is
	// never recycled: the redialer's write may still be reading it when
	// the burst's last consumer returns.
	resent bool
}

// resolve publishes the response frame's results.
func (p *Pending) resolve(f *Frame) {
	n := int(p.n)
	if len(f.Resp) < n {
		n = len(f.Resp) // short response: missing entries keep zero Results
	}
	for i := 0; i < n; i++ {
		r := &f.Resp[i]
		p.res[i].U = r.U
		if r.HasData {
			// The frame's Data sub-slices the connection read buffer,
			// which the reader reuses for the next frame; the result
			// must own its bytes.
			p.res[i].P = append([]byte(nil), r.Data...)
		} else {
			p.res[i].P = nil
		}
		p.res[i].Err = toError(r.Err)
	}
	p.state.Store(1)
	p.wakeAwaiters()
}

// fail resolves every operation in the burst with err.
func (p *Pending) fail(err error) {
	for i := range p.res[:p.n] {
		p.res[i] = ring.Result{Err: err}
	}
	p.state.Store(1)
	p.wakeAwaiters()
}

// wakeAwaiters follows the state store of resolve and fail: it releases
// Tok.Await's blocked callers and wakes the staging thread if it parked on
// its Parker slot. The parked thread armed its slot before re-checking
// state, so the store above is either seen by that re-check or followed by
// this wake.
func (p *Pending) wakeAwaiters() {
	close(p.done)
	if p.wake != nil {
		p.wake.Wake(p.wslot)
	}
}

// Tok is one staged operation's completion handle, a plain value core
// stores inside its own completion record.
type Tok struct {
	p *Pending
	i int32
}

// Zero reports whether the token is the zero Tok (no staged operation).
func (t Tok) Zero() bool { return t.p == nil }

// Ready polls the burst without blocking.
func (t Tok) Ready() (ring.Result, bool) {
	if t.p.state.Load() == 0 {
		return ring.Result{}, false
	}
	return t.p.res[t.i], true
}

// Finish records that the caller is done with this token — it polled a
// result via Ready, timed out, or is abandoning the wait. Exactly one of
// Finish or Await must be called per token; the last finisher of a burst
// that never resolved forgets it so the pending table stays bounded
// under lost frames.
func (t Tok) Finish() { t.consume() }

// consume records that this token's await has returned. The last
// consumer of a resolved burst recycles its frame buffer unless the
// redialer ever wrote it (retransmission is the cold path; the GC takes
// those); the last consumer of a burst that never resolved forgets it so
// the pending table stays bounded under lost frames.
func (t Tok) consume() {
	p := t.p
	if p.consumed.Add(1) != p.n || p.pc == nil {
		return
	}
	if p.state.Load() == 0 {
		p.pc.forget(uint64(p.seq))
		return
	}
	if !p.resent {
		p.pc.putBuf(p.frame)
	}
	p.frame = nil
}

// Read takes the reader role of the token's connection, if it is free and
// the link is up, reads the connection for at most d, resolving every burst
// it decodes, until the token's own burst resolves, and hands the role on
// when it leaves. It reports whether it held the role; a caller that did not
// must block until the burst resolves or the role is handed on — for a
// staging thread, parked on the slot Link.WakeOn named, armed before Read.
func (t Tok) Read(d time.Duration) bool {
	return t.p != nil && t.p.pc != nil && t.p.pc.read(t.p, time.Now().Add(d))
}

// Await blocks until the burst resolves or the deadline expires. A zero
// deadline applies the peer's default timeout (the liveness backstop —
// wire awaits are never unbounded, because no rescue path can reach into
// a peer process's shard). Each token must be awaited exactly once; the
// runtime's sync and drain paths do so.
//
// The wait reads the connection itself (Read); while another waiter holds
// the reader role it blocks until that reader resolves the burst, for at
// most awaitSlice at a time, and then tries the role again.
func (t Tok) Await(deadline time.Time) (ring.Result, error) {
	p := t.p
	if deadline.IsZero() {
		deadline = time.Now().Add(p.pconnTimeout())
	}
	for p.state.Load() == 0 {
		d := time.Until(deadline)
		if d <= 0 {
			if p.pc != nil {
				p.pc.peer.stats.Timeouts.Add(1)
			}
			t.consume()
			return ring.Result{Err: ring.ErrTimeout}, ring.ErrTimeout
		}
		if d = min(d, awaitSlice); !t.Read(d) {
			select {
			case <-p.done:
			case <-time.After(d):
			}
		}
	}
	t.consume()
	return p.res[t.i], p.res[t.i].Err
}

// pconnTimeout returns the owning peer's default completion bound.
func (p *Pending) pconnTimeout() time.Duration {
	if p.pc == nil {
		return DefaultTimeout
	}
	return p.pc.peer.cfg.Timeout
}

// Link is one sender thread's view of a peer: a pinned connection and at
// most one open burst toward the peer process, mirroring the in-process
// tier's open slot one tier up — a slot serves one partition, a frame one
// process, whichever of its partitions each entry names. Links are not safe
// for concurrent use — like a core Thread, each belongs to one goroutine.
type Link struct {
	peer *Peer
	pc   *pconn

	// The open burst: a partially encoded request frame (buf), its
	// completion record, and the count packed so far. pend is nil when no
	// burst is open. Flush transfers buf's ownership to the completion
	// record (retransmission may outlive the link's next claim), which
	// takes a recycled buffer from the connection.
	buf  []byte
	n    int
	pend *Pending

	// wake/wslot are copied into every burst the link claims (WakeOn).
	wake  *ring.Parker
	wslot int
}

// NewLink builds a sender view pinned to connection tid mod pool. All
// bursts from one link ride one connection in order, which the peer
// applies in order — that is what makes a sync write followed by a read
// on the same link read-your-writes across the process boundary.
func (pr *Peer) NewLink(tid int) *Link {
	return &Link{
		peer: pr,
		pc:   pr.conns[tid%len(pr.conns)],
	}
}

// WakeOn makes every burst the link stages from now on wake slot of pk when
// it resolves or fails, so the link's owner can park on that slot instead
// of polling its tokens. Call it once, before the first Stage.
func (l *Link) WakeOn(pk *ring.Parker, slot int) { l.wake, l.wslot = pk, slot }

// Stage packs op into the link's open burst, claiming a fresh burst when
// none is open, and publishes the burst once it is full. Any of the peer's
// partitions may join the open burst: the entry carries its own. The op's
// Data is copied into the frame immediately; the caller may reuse it when
// Stage returns. The returned token must be awaited exactly once
// (fire-and-forget included — that await is the drain barrier).
func (l *Link) Stage(op ring.StagedOp) (Tok, error) {
	if l.peer.closed.Load() {
		return Tok{}, ring.ErrClosed
	}
	if l.pend == nil {
		l.claim()
	}
	off := len(l.buf)
	l.buf = grow(l.buf, ReqOpFixed+len(op.Data))
	putReqOp(l.buf, off, &ReqOp{Code: op.Code, Fire: op.Fire, Part: uint32(op.Part), Key: op.Key, U: op.U, Data: op.Data})
	tok := Tok{p: l.pend, i: int32(l.n)}
	l.n++
	if l.n == MaxBurst {
		l.Flush()
	}
	return tok, nil
}

// claim opens a fresh burst: the frame header is reserved (seq
// backfilled at publish) and a completion record
// allocated. Flush hands the previous buffer to its burst (which may
// have to retransmit it), so claim draws a recycled one from the
// connection's freelist. The steady-state allocation of the wire send
// path is the completion record — amortized over the burst, and the
// price of results that must survive until whenever the sender
// collects them.
func (l *Link) claim() {
	if l.buf == nil {
		l.buf = l.pc.takeBuf()
	}
	l.buf = grow(l.buf[:0], 4+hdrSize)
	l.buf[4] = FrameRequest
	l.n = 0
	l.pend = &Pending{done: make(chan struct{}), wake: l.wake, wslot: l.wslot}
}

// Flush publishes the open burst, if any: the frame's length and op
// count are finalized, the buffer's ownership transfers to the burst
// (retransmission may need it after this link has moved on), and the
// single write hits the peer connection. Flush returns an error only when
// it resolved the burst with that error (ErrClosed, or a configuration
// mismatch found by the dial), which its tokens then carry too. A burst
// queued for retransmission — the link was down, or it died under this
// write — returns nil: its tokens resolve later, and a caller must await
// them rather than retry, or the op may apply twice.
func (l *Link) Flush() error {
	if l.pend == nil {
		return nil
	}
	binary.BigEndian.PutUint32(l.buf, uint32(len(l.buf)-4))
	binary.BigEndian.PutUint16(l.buf[9:], uint16(l.n))
	p := l.pend
	p.n = int32(l.n)
	p.frame = l.buf
	l.buf = nil
	l.n, l.pend = 0, nil
	return l.pc.publish(p)
}

// Close flushes and detaches the link. The underlying peer (shared by
// all links) is closed by its owner, not here.
func (l *Link) Close() error {
	return l.Flush()
}
