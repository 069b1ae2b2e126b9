package wire

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/chaos"
	"dps/internal/ring"
)

// The resilience suite exercises the failure half of the peer link:
// reconnects after a server restart, heartbeat-driven dead-link
// detection, and the redial pacing — all at the link's production timings.

// stageOne stages a single op, flushes it, and awaits with the given
// deadline (zero means the peer timeout).
func stageOne(t *testing.T, l *Link, key uint64) (ring.Result, error) {
	t.Helper()
	tok, err := l.Stage(ring.StagedOp{Part: 1, Code: 1, Key: key, U: [4]uint64{100}})
	if err != nil {
		t.Fatalf("stage key %d: %v", key, err)
	}
	l.Flush()
	return tok.Await(time.Time{})
}

// TestPeerReconnectAfterServerRestart kills a live server mid-session
// and restarts it on the same address: staged bursts on the same Peer
// succeed again via the retry queue and the redialer, no new Peer
// needed.
func TestPeerReconnectAfterServerRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	h := &echoHandler{}
	srv := NewServer(ln, 2, []int{0, 1}, h)
	go srv.Serve()

	pr, err := NewPeer(0, PeerConfig{
		Addr: addr, Parts: []int{1}, Partitions: 2,
		Timeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	l := pr.NewLink(0)
	if res, err := stageOne(t, l, 1); err != nil || res.U != 101 {
		t.Fatalf("pre-restart op: U=%d err=%v", res.U, err)
	}

	srv.Close()
	// Restart on the same address; the port was just freed.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := NewServer(ln2, 2, []int{0, 1}, h)
	go srv2.Serve()
	defer srv2.Close()

	// Ops staged after the kill hit the dead connection, queue for
	// retry, and land once the redialer reconnects.
	for i := uint64(2); i < 6; i++ {
		res, err := stageOne(t, l, i)
		if err != nil || res.U != i+100 {
			t.Fatalf("post-restart op %d: U=%d err=%v", i, res.U, err)
		}
	}
	st := pr.Stats()
	if st.Reconnects == 0 {
		t.Fatalf("no reconnect recorded: %+v", st)
	}
	if st.Pending != 0 {
		t.Fatalf("pending after recovery: %+v", st)
	}
}

// TestPeerHeartbeatDetectsDeadLink points a peer at a server that sends
// a valid hello and then goes silent: the heartbeat declares the link
// dead well before the op deadline, retransmission burns the budget,
// and the op resolves ErrTimeout (it was sent — the peer may have
// executed it).
func TestPeerHeartbeatDetectsDeadLink(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			hello, _ := AppendHello(nil, 2, []uint32{0, 1})
			c.Write(hello)
			go io.Copy(io.Discard, c) // swallow requests and pings, never answer
		}
	}()
	// The budget covers one detection and the retransmission after it, so
	// the op times out on the second silent connection.
	const detect = heartbeatMisses * heartbeatInterval
	pr, err := NewPeer(0, PeerConfig{
		Addr: ln.Addr().String(), Parts: []int{1}, Partitions: 2,
		Timeout: 2 * detect,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	l := pr.NewLink(0)
	start := time.Now()
	_, err = stageOne(t, l, 1)
	if !errors.Is(err, ring.ErrTimeout) {
		t.Fatalf("silent peer: err=%v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 4*detect {
		t.Fatalf("silent peer took %v to resolve", d)
	}
	st := pr.Stats()
	if st.HeartbeatsSent == 0 || st.HeartbeatsMissed == 0 {
		t.Fatalf("heartbeat never fired: %+v", st)
	}
	// One ping per interval of silence at most: a heartbeat loop that
	// stopped sleeping would ping on every pass once the link went idle.
	if max := uint64(time.Since(start)/heartbeatInterval) + 1; st.HeartbeatsSent > max {
		t.Fatalf("%d heartbeats in %v, want at most %d (one per %v)", st.HeartbeatsSent, time.Since(start), max, heartbeatInterval)
	}
	if st.Retries == 0 {
		t.Fatalf("dead link never retransmitted: %+v", st)
	}
}

// TestPeerRedialPacing pins the link's one dial policy, the redial
// backoff ladder. A listener that accepts every connection and hangs up at
// once fails each dial's hello while one staged op waits: the redialer
// keeps dialing, never more often than the ladder's minimum sleeps allow.
// Then a real server takes the address over, and the op lands inside its
// budget, applied exactly once.
func TestPeerRedialPacing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var accepts atomic.Int64
	hungUp := make(chan struct{})
	go func() {
		defer close(hungUp)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			c.Close()
		}
	}()
	pr, err := NewPeer(0, PeerConfig{
		Addr: addr, Parts: []int{1}, Partitions: 2,
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	l := pr.NewLink(0)
	start := time.Now()
	tok, err := l.Stage(ring.StagedOp{Part: 1, Code: 1, Key: 20, U: [4]uint64{100}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("flush of a queued burst: %v", err)
	}
	time.Sleep(2 * time.Second)
	dials := accepts.Load()
	elapsed := time.Since(start)
	if _, done := tok.Ready(); done {
		t.Fatal("op resolved while every dial failed")
	}
	// Publish dials once itself; after that the k-th redial sleeps at
	// least the sum of the first k backoff steps (10, 30, 70, 150, 310,
	// 630, 1130, 1630 ms), so only the steps whose sum fits in elapsed can
	// have dialed.
	ceiling := int64(1)
	for step, slept := retryBackoff, retryBackoff; slept <= elapsed; slept += step {
		ceiling++
		step = min(2*step, retryBackoffMax)
	}
	// Even the longest jittered ladder (15, 45, 105, 225, 465, 945 ms)
	// dials six times inside the first second.
	const floor = 5
	if dials < floor || dials > ceiling {
		t.Fatalf("%d dials in %v, want %d..%d", dials, elapsed, floor, ceiling)
	}

	ln.Close()
	<-hungUp
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	h := &echoHandler{}
	srv := NewServer(ln2, 2, []int{0, 1}, h)
	go srv.Serve()
	defer srv.Close()
	res, err := tok.Await(time.Time{})
	if err != nil || res.U != 120 {
		t.Fatalf("queued op after the takeover: U=%d err=%v", res.U, err)
	}
	if got := h.applied.Load(); got != 1 {
		t.Fatalf("op applied %d times, want once", got)
	}
}

// TestPeerFlushQueuedBurstReturnsNil severs the link under every publish:
// the burst moves to the retry queue, so Flush reports no error (a caller
// that retried on one would apply the op twice), and the retransmission
// resolves the token with the op applied once.
func TestPeerFlushQueuedBurstReturnsNil(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &echoHandler{}
	srv := NewServer(ln, 2, []int{0, 1}, h)
	go srv.Serve()
	defer srv.Close()
	pr, err := NewPeer(0, PeerConfig{
		Addr: ln.Addr().String(), Parts: []int{1}, Partitions: 2,
		Timeout: 3 * time.Second,
		Chaos:   chaos.New(chaos.Config{Seed: 1, PeerDownProb: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	l := pr.NewLink(0)
	tok, err := l.Stage(ring.StagedOp{Part: 1, Code: 1, Key: 5, U: [4]uint64{100}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush of a burst queued for retransmission: %v", err)
	}
	res, err := tok.Await(time.Time{})
	if err != nil || res.U != 105 {
		t.Fatalf("severed burst: U=%d err=%v", res.U, err)
	}
	if got := h.applied.Load(); got != 1 {
		t.Fatalf("op applied %d times, want once", got)
	}
	if st := pr.Stats(); st.FramesDropped != 1 || st.Retries != 1 {
		t.Fatalf("want one sever and one retransmission: %+v", st)
	}
}

// TestPeerJitterDiffersPerPeer builds two peers from one config, as two
// client processes would: their connection 0 must draw different redial
// jitter, or clients severed by one server restart redial in lockstep.
func TestPeerJitterDiffersPerPeer(t *testing.T) {
	cfg := PeerConfig{Addr: "127.0.0.1:1", Parts: []int{0}, Partitions: 1}
	draws := func() (out [4]time.Duration) {
		pr, err := NewPeer(0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer pr.Close()
		for i := range out {
			out[i] = pr.conns[0].jitter(retryBackoffMax)
		}
		return out
	}
	if a, b := draws(), draws(); a == b {
		t.Fatalf("two peers drew the same jitter sequence %v", a)
	}
}

// TestPeerRetryUnderChaosDrops runs bursts through an injector that
// severs the connection before some writes and delays others: every op
// still completes — severed pendings move to the retry queue and the
// redialer retransmits, slow links just pay the injected delay.
func TestPeerRetryUnderChaosDrops(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &echoHandler{}
	srv := NewServer(ln, 2, []int{0, 1}, h)
	go srv.Serve()
	defer srv.Close()

	inj := chaos.New(chaos.Config{
		Seed:          7,
		PeerDownProb:  0.2,
		SlowLinkProb:  0.1,
		SlowLinkDelay: time.Millisecond,
	})
	pr, err := NewPeer(0, PeerConfig{
		Addr: ln.Addr().String(), Parts: []int{1}, Partitions: 2,
		Timeout: 3 * time.Second,
		Chaos:   inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	l := pr.NewLink(0)
	for i := uint64(0); i < 40; i++ {
		res, err := stageOne(t, l, i)
		if err != nil || res.U != i+100 {
			t.Fatalf("op %d under chaos: U=%d err=%v", i, res.U, err)
		}
	}
	st := pr.Stats()
	if st.FramesDropped == 0 {
		t.Skip("injector never fired; seed produced no drops")
	}
	if st.Retries == 0 {
		t.Fatalf("drops without retries: %+v", st)
	}
}
