package mcd

import (
	"fmt"
	"testing"
	"time"

	"dps/internal/core"
)

// TestDPSPeerStore runs two complete dps stores connected over real TCP
// with split partition ownership: the "server" store owns every
// partition and serves them on a peer listener; the "client" store keeps
// partitions 0 and 1 local and delegates 2 and 3 across the wire. The
// Store/Session surface must behave identically either way — including
// session read-your-writes over asynchronous sets.
func TestDPSPeerStore(t *testing.T) {
	srv, err := Open("dps", Config{Partitions: 4, PeerListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("open serving store: %v", err)
	}
	defer srv.Close()
	addr := srv.(PeerListener).PeerAddr()
	if addr == "" {
		t.Fatal("serving store reports no peer address")
	}

	cli, err := Open("dps", Config{
		Partitions: 4,
		Peers:      []core.Peer{{Addr: addr, Parts: []int{2, 3}, Timeout: 2 * time.Second}},
	})
	if err != nil {
		t.Fatalf("open client store: %v", err)
	}
	defer cli.Close()
	if got := cli.(PeerListener).PeerAddr(); got != "" {
		t.Fatalf("client store reports peer address %q, want none", got)
	}

	sess, err := cli.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const n = 100
	val := func(k uint64) []byte { return []byte(fmt.Sprintf("value-%d", k)) }
	for k := uint64(0); k < n; k++ {
		if err := sess.Set(k, val(k)); err != nil {
			t.Fatalf("set %d: %v", k, err)
		}
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := sess.Get(k)
		if err != nil || !ok || string(v) != string(val(k)) {
			t.Fatalf("get %d: v=%q ok=%v err=%v", k, v, ok, err)
		}
	}

	// Read-your-writes across the wire: an async overwrite followed by a
	// sync get on the same session must observe the new value.
	for k := uint64(0); k < n; k++ {
		sess.SetAsync(k, []byte("v2"))
		v, ok, err := sess.Get(k)
		if err != nil || !ok || string(v) != "v2" {
			t.Fatalf("read-your-writes %d: v=%q ok=%v err=%v", k, v, ok, err)
		}
	}
	sess.Drain()

	// A wave spans both tiers: gets of local partitions ride the rings,
	// gets of peer-owned ones pack into wire bursts, one call collects both.
	ops := make([]WaveOp, n)
	for k := range ops {
		ops[k].Key = uint64(k)
	}
	sess.(Waver).Wave(ops)
	for _, o := range ops {
		if o.Err != nil || !o.OK || string(o.Val) != "v2" {
			t.Fatalf("wave get %d: v=%q ok=%v err=%v", o.Key, o.Val, o.OK, o.Err)
		}
	}

	// Ownership really is split: the serving store holds the remote
	// partitions' items, the client holds the rest, nothing is counted
	// twice and nothing was lost.
	sn, cn := srv.Len(), cli.Len()
	if sn == 0 || cn == 0 {
		t.Fatalf("ownership not split: server holds %d, client holds %d", sn, cn)
	}
	if sn+cn != n {
		t.Fatalf("server %d + client %d items, want %d total", sn, cn, n)
	}

	// The wire tier actually carried traffic, and nothing is in flight.
	m := cli.Metrics()
	if m.Totals.RemoteOps == 0 {
		t.Fatal("no remote ops recorded on the client")
	}
	if len(m.Peers) != 1 || m.Peers[0].Pending != 0 {
		t.Fatalf("peer metrics: %+v", m.Peers)
	}

	for k := uint64(0); k < n; k++ {
		if ok, err := sess.Delete(k); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", k, ok, err)
		}
	}
	if got := srv.Len() + cli.Len(); got != 0 {
		t.Fatalf("%d items left after deleting everything", got)
	}
}
