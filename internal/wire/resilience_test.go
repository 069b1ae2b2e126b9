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
// detection, and the circuit breaker's open/half-open/closed cycle.

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
		Timeout:      3 * time.Second,
		RetryBackoff: 2 * time.Millisecond,
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
	pr, err := NewPeer(0, PeerConfig{
		Addr: ln.Addr().String(), Parts: []int{1}, Partitions: 2,
		Timeout:           500 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   2,
		RetryBackoff:      5 * time.Millisecond,
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
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("silent peer took %v to resolve", d)
	}
	st := pr.Stats()
	if st.HeartbeatsSent == 0 || st.HeartbeatsMissed == 0 {
		t.Fatalf("heartbeat never fired: %+v", st)
	}
	if st.Retries == 0 {
		t.Fatalf("dead link never retransmitted: %+v", st)
	}
}

// TestPeerBreakerOpensAndRecovers drives the breaker's full cycle under
// the retry policy every burst rides: consecutive dial failures of one
// queued op open it, an open breaker holds the redialer off even once the
// peer is back, and the half-open probe after the cooldown delivers the op
// and closes the breaker again.
func TestPeerBreakerOpensAndRecovers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: dials fail fast with ECONNREFUSED
	pr, err := NewPeer(0, PeerConfig{
		Addr: addr, Parts: []int{1}, Partitions: 2,
		Timeout:          5 * time.Second,
		RetryBackoff:     2 * time.Millisecond,
		RetryBackoffMax:  5 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	l := pr.NewLink(0)
	tok, err := l.Stage(ring.StagedOp{Part: 1, Code: 1, Key: 20, U: [4]uint64{100}})
	if err != nil {
		t.Fatal(err)
	}
	l.Flush()
	for start := time.Now(); pr.Stats().BreakerState != brkOpen; time.Sleep(time.Millisecond) {
		if time.Since(start) > 3*time.Second {
			t.Fatalf("one op against a dead addr never opened the breaker: %+v", pr.Stats())
		}
	}
	if st := pr.Stats(); st.BreakerOpens == 0 {
		t.Fatalf("breaker open but no opening counted: %+v", st)
	}
	// Nothing dials while the breaker is open, so brkUntil stays where the
	// opening failure put it: the op cannot land before then.
	cooldownEnd := time.Unix(0, pr.brkUntil.Load())

	// Revive the peer inside the cooldown; the queued op waits it out.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("revive %s: %v", addr, err)
	}
	h := &stampHandler{}
	srv := NewServer(ln2, 2, []int{0, 1}, h)
	go srv.Serve()
	defer srv.Close()
	res, err := tok.Await(time.Time{})
	if err != nil || res.U != 120 {
		t.Fatalf("queued op after cooldown: U=%d err=%v", res.U, err)
	}
	if landed := h.at(); landed.Before(cooldownEnd) {
		t.Fatalf("op landed %v before the cooldown ended", cooldownEnd.Sub(landed))
	}
	if st := pr.Stats(); st.BreakerState != brkClosed {
		t.Fatalf("breaker did not close after the probe: %+v", st)
	}
}

// stampHandler is an echoHandler that records when it last applied.
type stampHandler struct {
	echoHandler
	last atomic.Int64
}

func (h *stampHandler) Apply(src uint64, seq uint32, part int, req []ReqOp, resp []RespOp) []RespOp {
	h.last.Store(time.Now().UnixNano())
	return h.echoHandler.Apply(src, seq, part, req, resp)
}

func (h *stampHandler) at() time.Time { return time.Unix(0, h.last.Load()) }

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
		Timeout:      3 * time.Second,
		RetryBackoff: 2 * time.Millisecond,
		Chaos:        inj,
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
