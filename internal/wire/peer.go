package wire

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
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
	// awaitSlice bounds each block of a Tok.Await whose connection another
	// waiter reads: past it the awaiter tries the reader role again, so a
	// role left with its burst unresolved is taken up within a slice.
	awaitSlice = time.Millisecond
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
		pr.conns[i] = &pconn{peer: pr, id: id, rng: id, pending: make(map[uint32]*Pending)}
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
		pending += len(pc.retryq)
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

// pconn is one pooled connection: a mutex-serialized writer, a reader role
// that the threads waiting on the connection take in turn (read), a heartbeat
// goroutine probing idle links, and a redialer goroutine retransmitting
// queued bursts after failures.
type pconn struct {
	peer *Peer
	id   uint64 // link identity, sent in the ident frame; dedup key half

	// mu serializes the write side: dialing, sequence assignment,
	// pending registration and the frame write happen under it, so
	// sequence numbers hit the socket in order. The retry queue and the
	// redialing flag live under it too: new bursts must observe a
	// non-empty queue and line up behind it, or per-link order breaks.
	mu     sync.Mutex
	seq    uint32 // monotonic per link, never reset on reconnect
	dialed bool   // a dial has succeeded at least once (reconnects count from here)
	// retryq is handed between failing writers, publish, shutdown and the
	// single active redialer; every access holds mu.
	retryq    []*Pending
	redialing bool
	// rng is the redial jitter state; only the active redialer touches it.
	rng  uint64
	free [][]byte // recycled frame buffers for Link.claim

	// lastRecv is the wall-clock nanosecond of the last inbound frame on
	// the live connection; the heartbeat loop reads it to detect silence.
	lastRecv atomic.Int64

	// cur is the live connection, nil while the link is down; it changes
	// under mu. reading is the reader role: only its holder touches cur's
	// frame reader.
	cur     atomic.Pointer[conn]
	reading atomic.Bool

	// pmu guards pending. Separate from mu so a reader resolving
	// completions never contends with a sender mid-write.
	pmu     sync.Mutex
	pending map[uint32]*Pending
	gen     uint64 // bumped per established connection
}

// conn is one established connection: the socket, the frame reader and the
// frame it decodes into, and its generation.
type conn struct {
	c   net.Conn
	fr  *frameReader
	f   Frame
	gen uint64
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
	if cur := pc.cur.Load(); cur != nil {
		return cur.c, nil
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
	pc.pmu.Unlock()
	pc.cur.Store(&conn{c: c, fr: fr, gen: gen})
	pc.lastRecv.Store(time.Now().UnixNano())
	go pc.heartbeat(c, gen)
	return c, nil
}

// readHello reads and validates the hello frame the serving side leads
// with, through the frame reader the connection's readers carry on with.
func (pc *pconn) readHello(c net.Conn, fr *frameReader) error {
	cfg := &pc.peer.cfg
	// The deadline bounds the hello; every later read sets its own.
	c.SetReadDeadline(time.Now().Add(dialTimeout))
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

// take claims the reader role of a live connection, and reports whether it
// did. A link that is down has nothing to read: its redialer hands the role
// on once it has retransmitted.
func (pc *pconn) take() bool {
	return pc.cur.Load() != nil && pc.reading.CompareAndSwap(false, true)
}

// leave gives the reader role up and hands it on: it wakes the first parked
// owner of an unresolved burst on the connection (the park slot Link.WakeOn
// named), which takes the role. A waiter that found the role held armed its
// slot before it tried, and the role is free before the scan, so either the
// scan finds the waiter armed or its take succeeds. A Tok.Await that found it
// held tries again after awaitSlice.
func (pc *pconn) leave() {
	pc.reading.Store(false)
	pc.pmu.Lock()
	for _, p := range pc.pending {
		if p.wake != nil && p.wake.Wake(p.wslot) {
			break
		}
	}
	pc.pmu.Unlock()
}

// read takes the reader role, if it is free and the link is up, and reports
// whether it did. Holding it, read decodes frames off the live connection and
// resolves every burst they answer, until p resolves (p nil: until one frame
// arrives, the heartbeat's proof of life) or until passes, and then leaves the
// role. Every arrival — responses or pongs, however many frames one socket
// read delivered — refreshes the liveness clock once. A connection that fails
// is torn down (its bursts move to the retry queue), and the read carries on
// on its successor if the redialer has established one.
func (pc *pconn) read(p *Pending, until time.Time) bool {
	if !pc.take() {
		return false
	}
	defer pc.leave()
	for cur := pc.cur.Load(); cur != nil; cur = pc.cur.Load() {
		cur.c.SetReadDeadline(until)
		for {
			if p != nil && p.state.Load() != 0 {
				return true
			}
			size, fresh, err := cur.fr.next(&cur.f)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return true
			}
			if err != nil || (cur.f.Type != FrameResponse && cur.f.Type != FramePong) {
				pc.linkDown(cur.c, cur.gen)
				break
			}
			if fresh {
				pc.lastRecv.Store(time.Now().UnixNano())
			}
			pc.peer.stats.FramesRecvd.Add(1)
			pc.peer.stats.BytesRecvd.Add(uint64(size))
			if cur.f.Type == FrameResponse {
				pc.pmu.Lock()
				q := pc.pending[cur.f.Seq]
				delete(pc.pending, cur.f.Seq)
				pc.pmu.Unlock()
				if q != nil { // nil: an abandoned burst, its awaiters already timed out
					q.resolve(&cur.f)
				}
			}
			if p == nil {
				return true
			}
		}
	}
	return true
}

// heartbeat probes the connection while it is idle: no inbound frame for
// an interval sends a ping; no inbound frame for heartbeatMisses
// intervals declares the link dead and trips the retry machinery — that
// is what bounds dead-link detection below the op timeout. When no waiter
// holds the reader role, the heartbeat reads the answer to its ping itself
// (resolving whatever response frames come first), so a link that is idle
// and healthy is never declared dead.
func (pc *pconn) heartbeat(c net.Conn, gen uint64) {
	const deadAfter = heartbeatMisses * heartbeatInterval
	var ping []byte
	for {
		time.Sleep(heartbeatInterval)
		if pc.peer.closed.Load() {
			return
		}
		pc.mu.Lock()
		if cur := pc.cur.Load(); cur == nil || cur.c != c {
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
		if idle >= heartbeatInterval {
			pc.read(nil, time.Now().Add(heartbeatInterval))
		}
	}
}

// linkDown tears down a dead connection. In-flight bursts inside their
// budget move to the retry queue (in sequence order, ahead of anything
// staged later); the rest expire — they were
// written at least once, so they fail with ErrTimeout ("may have
// executed"), never ErrPeerDown. Safe to call from a reader, the
// heartbeat and the writer; only the call matching the live generation
// moves pendings.
func (pc *pconn) linkDown(c net.Conn, gen uint64) {
	c.Close()
	pc.mu.Lock()
	if cur := pc.cur.Load(); cur != nil && cur.c == c {
		pc.cur.Store(nil)
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
			pc.retryq = append(pc.retryq, p)
		} else {
			failed = append(failed, p)
		}
	}
	if len(pc.retryq) > 1 {
		q := pc.retryq
		sort.Slice(q, func(i, j int) bool { return q[i].seq < q[j].seq })
	}
	if len(pc.retryq) > 0 && !pc.redialing && !pc.peer.closed.Load() {
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
			// the instant the write lands, a reader may resolve p and
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
		if pc.take() {
			pc.leave()
		}
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
	cur := pc.cur.Swap(nil)
	q := pc.retryq // the redialer finds the queue empty and exits
	pc.retryq = nil
	pc.mu.Unlock()
	if cur != nil {
		cur.c.Close()
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
	if len(pc.retryq) > 0 || pc.redialing { // queue behind the bursts awaiting a redial
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
	pc.retryq = append(pc.retryq, p)   // caller holds pc.mu (deferLocked contract)
	pc.peer.stats.Ops.Add(uint64(p.n)) // accepted for delivery
	if !pc.redialing {
		pc.redialing = true
		go pc.redial()
	}
}
