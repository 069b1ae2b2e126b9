package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/mcd"
)

// TestSessionPoolWedgedPeer holds the session pool at and past its bound
// while the peer owning half the partitions is wedged: its listener accepts
// and never answers. Sessions connections each pipeline peer-owned sets,
// so every session is borrowed by a batch that cannot finish quickly; one
// more connection then issues a get of a local key and has to wait for a
// session. The wait is bounded, but by the dial, not by OpTimeout: each
// peer set waits out the link's one-second hello timeout before it fails,
// so a batch of perConn sets holds its session for about perConn seconds.
// Once a real peer takes the address over, every set answered SERVER_ERROR
// has been applied at most once: a later set of the same key is not
// overwritten by a late copy, and the peer's apply count leaves room for
// no more than one copy of each.
func TestSessionPoolWedgedPeer(t *testing.T) {
	const (
		sessions = 2
		perConn  = 3
		parts    = 4
	)
	wedged, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := wedged.Addr().String()
	var mu sync.Mutex
	var held []net.Conn
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := wedged.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c) // accepted, never read, never answered
			mu.Unlock()
		}
	}()
	unwedge := func() {
		wedged.Close()
		<-accepted
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	}
	defer unwedge()

	store, err := mcd.Open("dps", mcd.Config{
		Partitions: parts, MaxThreads: 16, OpTimeout: 100 * time.Millisecond,
		Peers: []core.Peer{{Addr: addr, Parts: []int{2, 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serveStore(t, store, Config{Sessions: sessions})

	// Which keys the peer owns: the front door's key hash, routed the way
	// the store's runtime routes it.
	route, err := core.New(core.Config{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	defer route.Close()
	var local string
	var remote []string
	for i := 0; local == "" || len(remote) < sessions*perConn+1; i++ {
		key := fmt.Sprintf("k%d", i)
		if route.PartitionForKey(hashKey([]byte(key))).ID() >= 2 {
			remote = append(remote, key)
		} else if local == "" {
			local = key
		}
	}
	roundTrip(t, dial(t, srv), "set "+local+" 0 0 1\r\nL\r\n", "STORED\r\n")

	// Borrow every session: each connection pipelines perConn peer-owned
	// sets in one write, so its batch holds the session until all fail.
	type reply struct {
		key, line string
		err       error
	}
	replies := make(chan reply, sessions*perConn)
	start := time.Now()
	for c := 0; c < sessions; c++ {
		nc := dial(t, srv)
		keys := remote[c*perConn : (c+1)*perConn]
		var req strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&req, "set %s 0 0 3\r\nold\r\n", k)
		}
		if _, err := io.WriteString(nc, req.String()); err != nil {
			t.Fatal(err)
		}
		go func() {
			br := bufio.NewReader(nc)
			_ = nc.SetReadDeadline(time.Now().Add(30 * time.Second))
			for _, k := range keys {
				line, err := br.ReadString('\n')
				replies <- reply{k, line, err}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let both batches borrow their session

	// One more connection: a local get has to wait for a session.
	extra := dial(t, srv)
	t0 := time.Now()
	roundTrip(t, extra, "get "+local+"\r\n", valueBlock(local, 0, "L")+"END\r\n")
	wait := time.Since(t0)

	var failed []string
	for i := 0; i < sessions*perConn; i++ {
		r := <-replies
		switch {
		case r.err != nil:
			t.Fatalf("set %s: %v", r.key, r.err)
		case r.line == "SERVER_ERROR backend timeout\r\n", r.line == "SERVER_ERROR peer down\r\n":
			failed = append(failed, r.key)
		default:
			t.Fatalf("set %s to a wedged peer: %q, want SERVER_ERROR", r.key, r.line)
		}
	}
	busy := time.Since(start)
	t.Logf("extra connection waited %v for a session; batches held their sessions %v", wait.Round(time.Millisecond), busy.Round(time.Millisecond))
	if bound := time.Duration(perConn+2) * time.Second; wait > bound {
		t.Fatalf("extra connection waited %v for a session, want <= %v", wait, bound)
	}

	// The peer comes back: a real store takes the address over, and the
	// link redials on its own backoff. Probe with a key of its own until a
	// set lands; a probe answered "backend timeout" may have been applied.
	unwedge()
	peer, err := mcd.Open("dps", mcd.Config{Partitions: parts, MaxThreads: 16, PeerListen: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	probe := dial(t, srv)
	pr := bufio.NewReader(probe)
	var maybe uint64
	for deadline := time.Now().Add(10 * time.Second); ; {
		if _, err := fmt.Fprintf(probe, "set %s 0 0 1\r\np\r\n", remote[len(remote)-1]); err != nil {
			t.Fatal(err)
		}
		_ = probe.SetReadDeadline(time.Now().Add(5 * time.Second))
		line, err := pr.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "STORED\r\n" {
			break
		}
		if line == "SERVER_ERROR backend timeout\r\n" {
			maybe++
		}
		if time.Now().After(deadline) {
			t.Fatalf("the link never reconnected: last probe %q", line)
		}
		time.Sleep(50 * time.Millisecond)
	}
	nc := dial(t, srv)
	for _, k := range failed {
		roundTrip(t, nc, "set "+k+" 0 0 3\r\nnew\r\n", "STORED\r\n")
	}
	time.Sleep(time.Second) // room for any late copy of an old set to land
	for _, k := range failed {
		roundTrip(t, nc, "get "+k+"\r\n", valueBlock(k, 0, "new")+"END\r\n")
	}
	// The stored probe, the new sets and the gets account for 2n+1
	// applies, and each timed-out probe for at most one more; anything
	// beyond is a late copy of an old set, and there may be at most one per
	// key. The peer has no sessions, so its peer server's threads applied
	// every one: on their own locality, inline toward an unattended one, or
	// across a ring.
	n := uint64(len(failed))
	pm := peer.Metrics().Totals
	applied := pm.LocalExecs + pm.UnattendedExecs + pm.Served + pm.Rescued
	t.Logf("peer applied %d operations: 2n+1 = %d, up to %d timed-out probes, the rest late copies of %d failed sets", applied, 2*n+1, maybe, n)
	if lo, hi := 2*n+1, 2*n+1+maybe+n; applied < lo || applied > hi {
		t.Fatalf("peer applied %d operations, want between %d and %d", applied, lo, hi)
	}
}

// TestPooledSessionsIdle: a pooled session is between calls, so it serves
// nothing, and a replied operation toward a locality whose threads are all
// pooled sessions runs on the session that sends it, at issue — counted as
// UnattendedExecs — and wakes nobody. A default front door on a dps store
// gets a pipeline of replied sets and gets that reaches every partition; each
// reply is checked byte for byte. Were a pooled session counted as running,
// every such operation would ring its locality for a thread that never comes
// and be Rescued by its sender's wait. A store that also serves its
// partitions to peer processes keeps the rule: the peer server's threads wait
// for bursts under an Idle mark too.
func TestPooledSessionsIdle(t *testing.T) {
	const parts = 4
	for _, row := range []struct {
		name string
		cfg  mcd.Config
	}{
		{"sessions only", mcd.Config{Partitions: parts, MemLimit: 8 << 20}},
		{"peer listener", mcd.Config{Partitions: parts, MemLimit: 8 << 20, PeerListen: "127.0.0.1:0"}},
	} {
		t.Run(row.name, func(t *testing.T) { testPooledSessionsIdle(t, row.cfg) })
	}
}

func testPooledSessionsIdle(t *testing.T, cfg mcd.Config) {
	const keys = 32
	store, err := mcd.Open("dps", cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serveStore(t, store, Config{Sessions: DefaultSessions})
	nc := dial(t, srv)
	var req, want, multi, multiWant strings.Builder
	for i := 0; i < keys; i++ {
		key, val := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		fmt.Fprintf(&req, "set %s 0 0 %d\r\n%s\r\nget %s\r\n", key, len(val), val, key)
		want.WriteString("STORED\r\n" + valueBlock(key, 0, val) + "END\r\n")
		multi.WriteString(" " + key)
		multiWant.WriteString(valueBlock(key, 0, val))
	}
	req.WriteString("get" + multi.String() + "\r\n")
	want.WriteString(multiWant.String() + "END\r\n")

	before := store.Metrics()
	roundTrip(t, nc, req.String(), want.String())
	d := store.Metrics().Delta(before)
	m := d.Totals
	if m.Wakes != 0 {
		t.Fatalf("Wakes rose by %d, want 0", m.Wakes)
	}
	remote, inline := m.RemoteSends, m.UnattendedExecs
	if ops := uint64(3 * keys); m.LocalExecs+inline+remote != ops || m.AsyncSends != 0 {
		t.Fatalf("%d local + %d unattended + %d remote + %d async operations, want %d local, unattended or remote",
			m.LocalExecs, inline, remote, m.AsyncSends, ops)
	}
	if remote != 0 || m.Served+m.Rescued != 0 {
		t.Fatalf("%d operations sent, %d Served, %d Rescued: want every operation toward another locality run at issue",
			remote, m.Served, m.Rescued)
	}
	for _, p := range d.PerPartition {
		if p.LocalExecs+p.UnattendedExecs == 0 {
			t.Fatalf("no operation reached partition %d", p.Partition)
		}
	}
	if inline == 0 {
		t.Fatal("every operation ran on its session's own locality")
	}
}
