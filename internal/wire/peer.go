package wire

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dps/internal/chaos"
	"dps/internal/obs"
	"dps/internal/ring"
)

// DefaultTimeout bounds a completion await with no explicit deadline when
// PeerConfig.Timeout is zero. It is the wire tier's liveness backstop: a
// dropped frame or wedged peer resolves as ErrTimeout instead of hanging a
// drain forever.
const DefaultTimeout = 2 * time.Second

// The link's timings (DESIGN.md §12). One value serves every caller, and
// the resilience tests run at these values, so they are not configuration.
const (
	// numConns is the connection pool size per peer. Senders are pinned to
	// one connection (tid mod pool), so per-sender ordering — and
	// therefore read-your-writes — holds within a connection while
	// distinct senders still spread over the pool.
	numConns = 2
	// dialTimeout bounds connection establishment (initial and lazy
	// reconnect after a link failure), hello included.
	dialTimeout = time.Second
	// heartbeatInterval is how often an idle link is probed with a ping;
	// heartbeatMisses silent intervals declare it dead: 3×250ms = 750ms,
	// well inside DefaultTimeout, so retransmission has budget left when
	// the default op deadline governs.
	heartbeatInterval = 250 * time.Millisecond
	heartbeatMisses   = 3
	// retryBackoff is the redialer's first sleep after a link failure; it
	// doubles per failed attempt up to retryBackoffMax, with jitter so a
	// fleet of clients does not redial in lockstep. The cap is also the
	// dial rate toward a peer that stays dark: one dial per 0.5–0.75 s
	// per connection.
	retryBackoff    = 10 * time.Millisecond
	retryBackoffMax = 500 * time.Millisecond
)

// PeerConfig describes one peer process that owns partitions on this
// runtime's behalf.
type PeerConfig struct {
	// Addr is the peer's listen address (host:port).
	Addr string
	// Parts are the global partition indices the peer owns. Required,
	// non-empty, disjoint from every other peer's and from the local set.
	Parts []int
	// Timeout is the default completion bound (zero-deadline awaits) and
	// the retry budget: a burst is retransmitted until its publish time
	// plus Timeout. Defaults to DefaultTimeout.
	Timeout time.Duration
	// Partitions is the total partition count of the cluster, validated
	// against the peer's hello. Required.
	Partitions int
	// Chaos injects link faults (DropFrame, SlowLink, PeerDown) on the
	// send path. Nil outside chaos tests.
	Chaos *chaos.Injector
}

// Peer is the client side of one peer process's link: a small pool of
// TCP connections, each with pipelined in-flight bursts matched to
// response frames by sequence number. Connections are established
// lazily and re-established automatically: when a link dies, in-flight
// bursts queue for retransmission (the server deduplicates by link
// identity + sequence number, so a burst whose response was lost is not
// re-executed) and a redialer re-establishes the connection with
// exponential backoff, bounded per burst by its retry budget.
type Peer struct {
	cfg    PeerConfig
	idx    int
	conns  []*pconn
	closed atomic.Bool
	stats  obs.PeerCounters[atomic.Uint64]
}

// NewPeer validates cfg and builds the (unconnected) peer. idx is the
// peer's position in the runtime's configuration order, echoed in Stats.
func NewPeer(idx int, cfg PeerConfig) (*Peer, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("wire: peer %d has no address", idx)
	}
	if len(cfg.Parts) == 0 {
		return nil, fmt.Errorf("wire: peer %d (%s) owns no partitions", idx, cfg.Addr)
	}
	if cfg.Partitions < 1 {
		return nil, fmt.Errorf("wire: peer %d (%s): total partition count not set", idx, cfg.Addr)
	}
	for _, p := range cfg.Parts {
		if p < 0 || p >= cfg.Partitions {
			return nil, fmt.Errorf("wire: peer %d (%s): partition %d out of range [0,%d)", idx, cfg.Addr, p, cfg.Partitions)
		}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	pr := &Peer{cfg: cfg, idx: idx, conns: make([]*pconn, numConns)}
	for i := range pr.conns {
		// The jitter stream starts from the link identity, so it differs
		// per connection and per process: clients whose links one server
		// restart severed together do not redial in lockstep.
		id := linkID()
		pr.conns[i] = &pconn{peer: pr, id: id, rng: id}
	}
	return pr, nil
}

// linkID draws a random 64-bit link identity, minted once per connection
// slot for the Peer's lifetime. The server keys its dedup window on it, so
// collisions across all clients that ever connect must be unlikely —
// crypto/rand, not a counter. It is never 0, which also keeps the xorshift
// jitter stream seeded from it off its fixed point.
func linkID() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// Fall back to a clock-derived identity; dedup degrades to
		// best-effort rather than the peer failing to construct.
		return uint64(time.Now().UnixNano()) | 1
	}
	id := binary.BigEndian.Uint64(b[:])
	if id == 0 {
		id = 1 // 0 means "no identity" on the wire
	}
	return id
}

// Addr returns the peer's dial address.
func (pr *Peer) Addr() string { return pr.cfg.Addr }

// Owns returns the partitions the peer owns.
func (pr *Peer) Owns() []int { return pr.cfg.Parts }

// Timeout returns the default completion bound.
func (pr *Peer) Timeout() time.Duration { return pr.cfg.Timeout }

// Close severs every connection. In-flight and queued bursts fail with
// ErrClosed; subsequent stages fail fast the same way.
func (pr *Peer) Close() error {
	pr.closed.Store(true)
	for _, pc := range pr.conns {
		pc.shutdown(ring.ErrClosed)
	}
	return nil
}

// Stats snapshots the link counters.
func (pr *Peer) Stats() obs.PeerMetrics {
	pending := 0
	for _, pc := range pr.conns {
		pc.pmu.Lock()
		pending += len(pc.pending)
		pc.pmu.Unlock()
		pc.mu.Lock()
		pending += len(pc.retryq) //dps:owner-ok mu-guarded racy gauge; any goroutine may sample stats
		pc.mu.Unlock()
	}
	return obs.PeerMetrics{
		Peer:         pr.idx,
		Addr:         pr.cfg.Addr,
		Parts:        len(pr.cfg.Parts),
		PeerCounters: pr.stats.Load(),
		Pending:      pending,
	}
}

// pconn is one pooled connection: a mutex-serialized writer, a reader
// goroutine resolving pendings by sequence number, a heartbeat goroutine
// probing idle links, and a redialer goroutine retransmitting queued
// bursts after failures.
type pconn struct {
	peer *Peer
	id   uint64 // link identity, sent in the ident frame; dedup key half

	// mu serializes the write side: dialing, sequence assignment,
	// pending registration and the frame write happen under it, so
	// sequence numbers hit the socket in order. The retry queue and the
	// redialing flag live under it too: new bursts must observe a
	// non-empty queue and line up behind it, or per-link order breaks.
	mu     sync.Mutex
	c      net.Conn
	seq    uint32 // monotonic per link, never reset on reconnect
	dialed bool   // a dial has succeeded at least once (reconnects count from here)
	// retryq is handed between failing writers and the single active
	// redialer under mu; accesses outside the redial loop carry owner-ok
	// suppressions naming the lock.
	//
	//dps:owned-by=redialer
	retryq    []*Pending
	redialing bool
	// rng is the redial jitter state; only the active redialer touches it.
	//
	//dps:owned-by=redialer
	rng  uint64
	free [][]byte // recycled frame buffers for Link.claim

	// lastRecv is the wall-clock nanosecond of the last inbound frame on
	// the live connection; the heartbeat loop reads it to detect silence.
	lastRecv atomic.Int64

	// pmu guards pending. Separate from mu so the reader resolving
	// completions never contends with a sender mid-write.
	pmu     sync.Mutex
	pending map[uint32]*Pending
	gen     uint64 // bumped per established connection; the reader exits when it changes
}

// takeBuf hands out a recycled frame buffer (or nil — the claim path
// grows from nil fine).
func (pc *pconn) takeBuf() []byte {
	pc.pmu.Lock()
	var b []byte
	if n := len(pc.free); n > 0 {
		b = pc.free[n-1]
		pc.free = pc.free[:n-1]
	}
	pc.pmu.Unlock()
	return b
}

// putBuf recycles a frame buffer once its burst resolved (the consumer
// side owns it at that point). The freelist is small — steady state has
// one buffer in flight per link.
func (pc *pconn) putBuf(b []byte) {
	if b == nil {
		return
	}
	pc.pmu.Lock()
	if len(pc.free) < 8 {
		pc.free = append(pc.free, b[:0])
	}
	pc.pmu.Unlock()
}

// ensureConn returns the live connection, dialing if necessary. Caller
// holds pc.mu.
func (pc *pconn) ensureConn() (net.Conn, error) {
	if pc.c != nil {
		return pc.c, nil
	}
	if pc.peer.closed.Load() {
		return nil, ring.ErrClosed
	}
	c, err := net.DialTimeout("tcp", pc.peer.cfg.Addr, dialTimeout)
	if err != nil {
		return nil, ring.ErrPeerDown
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	// Validate the peer's hello before exposing the connection: version
	// and cluster shape mismatches are configuration errors and must not
	// look like transient link failures.
	fr := newFrameReader(c)
	if err := pc.readHello(c, fr); err != nil {
		c.Close()
		return nil, err
	}
	// Name this link so the server can deduplicate retransmitted bursts.
	ident, _ := AppendIdent(nil, pc.id)
	if _, err := c.Write(ident); err != nil {
		c.Close()
		return nil, ring.ErrPeerDown
	}
	if pc.dialed {
		pc.peer.stats.Reconnects.Add(1)
	}
	pc.dialed = true
	pc.pmu.Lock()
	pc.gen++
	gen := pc.gen
	if pc.pending == nil {
		pc.pending = make(map[uint32]*Pending)
	}
	pc.pmu.Unlock()
	pc.c = c
	pc.lastRecv.Store(time.Now().UnixNano())
	go pc.readLoop(c, fr, gen)
	go pc.heartbeat(c, gen)
	return c, nil
}

// readHello reads and validates the hello frame the serving side leads
// with, through the frame reader the connection's read loop carries on with.
func (pc *pconn) readHello(c net.Conn, fr *frameReader) error {
	cfg := &pc.peer.cfg
	c.SetReadDeadline(time.Now().Add(dialTimeout))
	defer c.SetReadDeadline(time.Time{})
	f := Frame{Type: FrameIdent} // not a hello until a frame says it is
	_, _, err := fr.next(&f)
	if f.Type == FrameHello && errors.Is(err, ErrCorrupt) {
		// A hello this version cannot lay out is another version's: a
		// configuration error, like a mismatched version field.
		return fmt.Errorf("wire: peer %s sent a hello that is not protocol v%d", cfg.Addr, Version)
	}
	if err != nil || f.Type != FrameHello {
		return ring.ErrPeerDown
	}
	if f.Hello.Version != Version {
		return fmt.Errorf("wire: peer %s speaks protocol v%d, want v%d", cfg.Addr, f.Hello.Version, Version)
	}
	if int(f.Hello.Partitions) != cfg.Partitions {
		return fmt.Errorf("wire: peer %s has %d partitions, want %d", cfg.Addr, f.Hello.Partitions, cfg.Partitions)
	}
	owned := make(map[uint32]bool, len(f.Hello.Owned))
	for _, p := range f.Hello.Owned {
		owned[p] = true
	}
	for _, p := range cfg.Parts {
		if !owned[uint32(p)] {
			return fmt.Errorf("wire: peer %s does not own partition %d", cfg.Addr, p)
		}
	}
	return nil
}

// readLoop resolves in-flight bursts as their response frames arrive.
// One goroutine per established connection; it exits when the connection
// dies (moving pendings to the retry queue) or is superseded.
// Every arrival — responses or pongs, however many frames one read
// delivered — refreshes the liveness clock once.
func (pc *pconn) readLoop(c net.Conn, fr *frameReader, gen uint64) {
	var f Frame
	for {
		size, fresh, err := fr.next(&f)
		if err != nil {
			pc.linkDown(c, gen)
			return
		}
		if fresh {
			pc.lastRecv.Store(time.Now().UnixNano())
		}
		pc.peer.stats.FramesRecvd.Add(1)
		pc.peer.stats.BytesRecvd.Add(uint64(size))
		if f.Type == FramePong {
			continue
		}
		if f.Type != FrameResponse {
			pc.linkDown(c, gen)
			return
		}
		pc.pmu.Lock()
		p := pc.pending[f.Seq]
		delete(pc.pending, f.Seq)
		pc.pmu.Unlock()
		if p == nil {
			continue // abandoned burst: its awaiters already timed out
		}
		p.resolve(&f)
	}
}

// heartbeat probes the connection while it is idle: no inbound frame for
// an interval sends a ping; no inbound frame for heartbeatMisses
// intervals declares the link dead and trips the retry machinery — that
// is what bounds dead-link detection below the op timeout.
func (pc *pconn) heartbeat(c net.Conn, gen uint64) {
	const deadAfter = heartbeatMisses * heartbeatInterval
	var ping []byte
	for {
		time.Sleep(heartbeatInterval)
		if pc.peer.closed.Load() {
			return
		}
		pc.mu.Lock()
		if pc.c != c {
			pc.mu.Unlock()
			return // superseded or already torn down
		}
		idle := time.Duration(time.Now().UnixNano() - pc.lastRecv.Load())
		if idle >= deadAfter {
			pc.mu.Unlock()
			pc.peer.stats.HeartbeatsMissed.Add(1)
			pc.linkDown(c, gen)
			return
		}
		if idle >= heartbeatInterval {
			ping, _ = AppendControl(ping[:0], FramePing, uint32(gen))
			if _, err := c.Write(ping); err != nil {
				pc.mu.Unlock()
				pc.linkDown(c, gen)
				return
			}
			pc.peer.stats.HeartbeatsSent.Add(1)
		}
		pc.mu.Unlock()
	}
}

// linkDown tears down a dead connection. In-flight bursts inside their
// budget move to the retry queue (in sequence order, ahead of anything
// staged later); the rest expire — they were
// written at least once, so they fail with ErrTimeout ("may have
// executed"), never ErrPeerDown. Safe to call from the reader, the
// heartbeat and the writer; only the call matching the live generation
// moves pendings.
func (pc *pconn) linkDown(c net.Conn, gen uint64) {
	c.Close()
	pc.mu.Lock()
	if pc.c == c {
		pc.c = nil
	}
	var moved []*Pending
	pc.pmu.Lock()
	if gen == pc.gen {
		for seq, p := range pc.pending {
			moved = append(moved, p)
			delete(pc.pending, seq)
		}
	}
	pc.pmu.Unlock()
	sort.Slice(moved, func(i, j int) bool { return moved[i].seq < moved[j].seq })
	now := time.Now()
	var failed []*Pending
	for _, p := range moved {
		if now.Before(p.deadline) {
			pc.retryq = append(pc.retryq, p) //dps:owner-ok link teardown runs under pc.mu from whichever goroutine saw the failure first
		} else {
			failed = append(failed, p)
		}
	}
	if len(pc.retryq) > 1 { //dps:owner-ok link teardown runs under pc.mu from whichever goroutine saw the failure first
		q := pc.retryq //dps:owner-ok same pc.mu critical section as above
		sort.Slice(q, func(i, j int) bool { return q[i].seq < q[j].seq })
	}
	if len(pc.retryq) > 0 && !pc.redialing && !pc.peer.closed.Load() { //dps:owner-ok same pc.mu critical section as above
		pc.redialing = true
		go pc.redial()
	}
	pc.mu.Unlock()
	pc.expire(failed)
}

// redial owns the retry queue until it drains: sleep with exponential
// backoff + jitter, expire bursts whose budget ran out, re-establish the
// connection, and retransmit the queue in sequence order. Exactly one
// redialer runs per pconn (the redialing flag, under mu). Its backoff
// ladder is the link's only dial pacing: a peer that stays dark is dialed
// once per capped step, however long the outage lasts.
//
//dps:domain=redialer
func (pc *pconn) redial() {
	backoff := retryBackoff
	for {
		time.Sleep(backoff + pc.jitter(backoff))
		var expired []*Pending
		pc.mu.Lock()
		if pc.peer.closed.Load() {
			q := pc.retryq
			pc.retryq, pc.redialing = nil, false
			pc.mu.Unlock()
			for _, p := range q {
				pc.peer.stats.Failed.Add(uint64(p.n))
				p.fail(ring.ErrClosed)
			}
			return
		}
		now := time.Now()
		keep := pc.retryq[:0]
		for _, p := range pc.retryq {
			if now.Before(p.deadline) {
				keep = append(keep, p)
			} else {
				expired = append(expired, p)
			}
		}
		pc.retryq = keep
		if len(pc.retryq) == 0 {
			pc.redialing = false
			pc.mu.Unlock()
			pc.expire(expired)
			return
		}
		c, err := pc.ensureConn()
		if err != nil {
			if !errors.Is(err, ring.ErrPeerDown) {
				// Configuration error (version/shape mismatch): retrying
				// cannot fix it, fail the whole queue with the cause.
				q := pc.retryq
				pc.retryq, pc.redialing = nil, false
				pc.mu.Unlock()
				pc.expire(expired)
				for _, p := range q {
					pc.peer.stats.Failed.Add(uint64(p.n))
					p.fail(err)
				}
				return
			}
			pc.mu.Unlock()
			pc.expire(expired)
			backoff = min(2*backoff, retryBackoffMax)
			continue
		}
		gen := pc.gen
		wrote := true
		for len(pc.retryq) > 0 {
			p := pc.retryq[0]
			if p.state.Load() != 0 {
				pc.retryq = pc.retryq[0:copy(pc.retryq, pc.retryq[1:])]
				continue // already resolved (shutdown race); drop
			}
			if p.consumed.Load() == p.n {
				// Every awaiter gave up; retransmitting buys nothing.
				pc.retryq = pc.retryq[0:copy(pc.retryq, pc.retryq[1:])]
				pc.peer.stats.Failed.Add(uint64(p.n))
				p.fail(ring.ErrTimeout)
				continue
			}
			// Snapshot the frame and mark it resent before registering p:
			// the instant the write lands, the reader may resolve p and
			// its last consumer clears p.frame.
			frame := p.frame
			p.resent = true
			p.attempts++
			pc.pmu.Lock()
			p.gen = gen
			pc.pending[p.seq] = p
			pc.pmu.Unlock()
			if _, werr := c.Write(frame); werr != nil {
				pc.pmu.Lock()
				delete(pc.pending, p.seq)
				pc.pmu.Unlock()
				wrote = false
				break
			}
			pc.retryq = pc.retryq[0:copy(pc.retryq, pc.retryq[1:])]
			pc.peer.stats.Retries.Add(1)
			pc.peer.stats.FramesSent.Add(1)
			pc.peer.stats.BytesSent.Add(uint64(len(frame)))
		}
		if !wrote {
			pc.mu.Unlock()
			pc.expire(expired)
			pc.linkDown(c, gen)
			backoff = min(2*backoff, retryBackoffMax)
			continue
		}
		pc.redialing = false
		pc.mu.Unlock()
		pc.expire(expired)
		return
	}
}

// expire fails bursts whose retry budget ran out: ErrTimeout if the
// burst was sent at least once (the peer may have executed it), and
// ErrPeerDown if it was never delivered.
func (pc *pconn) expire(ps []*Pending) {
	for _, p := range ps {
		if p.attempts > 0 {
			pc.peer.stats.Timeouts.Add(uint64(p.n))
			p.fail(ring.ErrTimeout)
		} else {
			pc.peer.stats.Failed.Add(uint64(p.n))
			p.fail(ring.ErrPeerDown)
		}
	}
}

// jitter draws a uniform delay in [0, d/2] off a per-link xorshift
// stream, decorrelating redial schedules across links and processes.
func (pc *pconn) jitter(d time.Duration) time.Duration {
	x := pc.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	pc.rng = x
	span := uint64(d/2) + 1
	return time.Duration(x % span)
}

// shutdown severs the connection (if any) and fails all pending and
// queued bursts.
func (pc *pconn) shutdown(err error) {
	pc.mu.Lock()
	c := pc.c
	pc.c = nil
	q := pc.retryq  //dps:owner-ok shutdown steals the queue under pc.mu; the redialer observes it empty and exits
	pc.retryq = nil //dps:owner-ok same pc.mu critical section as above
	pc.mu.Unlock()
	if c != nil {
		c.Close()
	}
	pc.failPending(0, err)
	for _, p := range q {
		pc.peer.stats.Failed.Add(uint64(p.n))
		p.fail(err)
	}
}

// failPending resolves every pending burst of generation gen with err.
func (pc *pconn) failPending(gen uint64, err error) {
	pc.pmu.Lock()
	if gen != 0 && gen != pc.gen {
		pc.pmu.Unlock()
		return
	}
	var failed []*Pending
	for seq, p := range pc.pending {
		failed = append(failed, p)
		delete(pc.pending, seq)
	}
	pc.pmu.Unlock()
	for _, p := range failed {
		pc.peer.stats.Failed.Add(uint64(p.n))
		p.fail(err)
	}
}

// forget drops an abandoned burst from the pending table once every one
// of its tokens has been consumed without a response (the lost-frame
// path); a response arriving later finds nothing and is discarded.
func (pc *pconn) forget(seq uint64) {
	pc.pmu.Lock()
	delete(pc.pending, uint32(seq))
	pc.pmu.Unlock()
}

// publish assigns the burst's sequence number, registers p, backfills
// it into the frame header and writes the frame — the wire tier's
// publish+doorbell, with chaos faults injected at the link. While the
// link is down (retry queue non-empty or redialer active), bursts line up
// on the retry queue behind the bursts already there — per-link order is
// what read-your-writes rests on. Injected frame drops leave p to the
// deadline machinery. It returns an error only when it resolved p with
// that error; a burst a failed write or an injected sever moved to the
// retry queue returns nil, and its tokens carry the outcome.
func (pc *pconn) publish(p *Pending) error {
	inj := pc.peer.cfg.Chaos
	pc.mu.Lock()
	if pc.peer.closed.Load() {
		pc.mu.Unlock()
		pc.peer.stats.Failed.Add(uint64(p.n))
		p.fail(ring.ErrClosed)
		return ring.ErrClosed
	}
	pc.seq++
	seq := pc.seq
	binary.BigEndian.PutUint32(p.frame[5:], seq)
	p.pc, p.seq = pc, seq
	p.deadline = time.Now().Add(pc.peer.cfg.Timeout)
	if len(pc.retryq) > 0 || pc.redialing { //dps:owner-ok publish holds pc.mu; a non-empty queue reroutes the burst behind it
		pc.deferLocked(p)
		pc.mu.Unlock()
		return nil
	}
	c, err := pc.ensureConn()
	if err != nil {
		if errors.Is(err, ring.ErrClosed) || !errors.Is(err, ring.ErrPeerDown) {
			// Shutdown or a configuration error: retrying cannot help.
			pc.mu.Unlock()
			pc.peer.stats.Failed.Add(uint64(p.n))
			p.fail(err)
			return err
		}
		pc.deferLocked(p)
		pc.mu.Unlock()
		return nil
	}
	gen := pc.gen
	p.gen = gen
	pc.pmu.Lock()
	pc.pending[seq] = p
	pc.pmu.Unlock()

	if inj != nil {
		if inj.PeerDown() {
			pc.mu.Unlock()
			pc.peer.stats.FramesDropped.Add(1)
			pc.linkDown(c, gen)
			return nil // p moved to the retry queue with the rest of gen
		}
		if inj.DropFrame() {
			p.attempts++
			pc.mu.Unlock()
			pc.peer.stats.FramesDropped.Add(1)
			return nil // burst stays pending; its awaiters time out
		}
		inj.SlowLink()
	}

	p.attempts++
	n, flen := p.n, len(p.frame)
	_, werr := c.Write(p.frame)
	pc.mu.Unlock()
	if werr != nil {
		pc.linkDown(c, gen)
		return nil // p moved to the retry queue with the rest of gen
	}
	pc.peer.stats.FramesSent.Add(1)
	pc.peer.stats.BytesSent.Add(uint64(flen))
	pc.peer.stats.Ops.Add(uint64(n))
	return nil
}

// deferLocked queues p for retransmission and kicks the redialer; p was
// just published, so its budget is whole, and the redialer expires it if
// the link does not come back in time. Caller holds pc.mu.
func (pc *pconn) deferLocked(p *Pending) {
	pc.retryq = append(pc.retryq, p)   //dps:owner-ok caller holds pc.mu (deferLocked contract)
	pc.peer.stats.Ops.Add(uint64(p.n)) // accepted for delivery
	if !pc.redialing {
		pc.redialing = true
		go pc.redial()
	}
}
