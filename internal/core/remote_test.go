package core

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/chaos"
	"dps/internal/obs"
	"dps/internal/wire"
)

// The remote tests run a two-node cluster inside one test process: a
// "server" runtime owning every partition locally behind a PeerServer,
// and a "client" runtime that owns a local subset and delegates the rest
// over TCP loopback.

const rtParts = 4

// rtHash routes key k to partition k mod rtParts, so tests pick their
// destination partition by key.
func rtHash(k uint64) uint64 { return (k % rtParts) * (DefaultNamespaceSize / rtParts) }

// The shared test ops. Top-level functions: RegisterOp requires a stable
// function identity, and both runtimes must register the same codes.
const (
	codePut uint16 = 1
	codeGet uint16 = 2
	codeLen uint16 = 3
	// codeBlock is remoteBlock, which holds its server until the test that
	// made blockPeer closes it.
	codeBlock   uint16 = 5
	codeEcho    uint16 = 6
	codePanic   uint16 = 7
	codeSlowPut uint16 = 8
)

// kvShard is a partition's store in the remote tests. Its lock makes each
// operation atomic: several threads may run a partition's operations at once
// — its locality's, a sender's running them inline, the peer server's.
type kvShard struct {
	mu sync.Mutex
	m  map[uint64][]byte
}

// lockKV returns p's store, locked.
func lockKV(p *Partition) *kvShard {
	s := p.Data().(*kvShard)
	s.mu.Lock()
	return s
}

// remotePut stores a copy of the value: the wire hands ops a decode
// buffer that is reused after the op returns.
func remotePut(p *Partition, key uint64, a *Args) Result {
	s := lockKV(p)
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), a.P.([]byte)...)
	return Result{U: uint64(len(s.m))}
}

func remoteGet(p *Partition, key uint64, a *Args) Result {
	s := lockKV(p)
	defer s.mu.Unlock()
	v, ok := s.m[key]
	if !ok {
		return Result{U: 0}
	}
	return Result{U: 1, P: v}
}

func remoteLen(p *Partition, key uint64, a *Args) Result {
	s := lockKV(p)
	defer s.mu.Unlock()
	return Result{U: uint64(len(s.m))}
}

// remoteSlowPut is remotePut a millisecond late: long enough that a response
// sent before the put applied would reach its sender first.
func remoteSlowPut(p *Partition, key uint64, a *Args) Result {
	time.Sleep(time.Millisecond)
	return remotePut(p, key, a)
}

// remoteEcho returns its argument. The bytes alias the wire's decode buffer,
// which the peer server encodes the response from before its next read.
func remoteEcho(p *Partition, key uint64, a *Args) Result {
	return Result{U: key, P: a.P}
}

// remotePanic panics with its key, in whichever process serves it.
func remotePanic(p *Partition, key uint64, a *Args) Result {
	panic(fmt.Sprintf("boom %d", key))
}

func registerTestOps(t testing.TB, rt *Runtime) {
	t.Helper()
	for _, r := range []struct {
		code uint16
		op   Op
	}{{codePut, remotePut}, {codeGet, remoteGet}, {codeLen, remoteLen}, {codeBlock, remoteBlock}, {codeEcho, remoteEcho}, {codePanic, remotePanic}, {codeSlowPut, remoteSlowPut}} {
		if err := rt.RegisterOp(r.code, r.op); err != nil {
			t.Fatalf("RegisterOp(%d): %v", r.code, err)
		}
	}
}

func mapInit(p *Partition) any { return &kvShard{m: make(map[uint64][]byte)} }

// startCluster builds the pair. The client owns partitions 0..1 locally
// and delegates 2..3 to the server. Returned cleanup order matters: the
// test closes client before server.
func startCluster(t testing.TB, clientCfg func(*Config)) (client *Runtime, clientThread *Thread) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, clientThread, _ = startClusterOn(t, ln, clientCfg)
	return client, clientThread
}

// startClusterOn is startCluster with the server listening on ln; it also
// returns the serving runtime.
func startClusterOn(t testing.TB, ln net.Listener, clientCfg func(*Config)) (client *Runtime, clientThread *Thread, server *Runtime) {
	t.Helper()
	var err error
	server, err = New(Config{Partitions: rtParts, Hash: rtHash, Init: mapInit})
	if err != nil {
		t.Fatal(err)
	}
	registerTestOps(t, server)
	ps, err := server.NewPeerServer(ln)
	if err != nil {
		t.Fatal(err)
	}
	go ps.Serve()
	t.Cleanup(func() {
		ps.Close()
		server.Shutdown(time.Second)
	})

	cfg := Config{
		Partitions: rtParts,
		Hash:       rtHash,
		Init:       mapInit,
		Peers: []Peer{{
			Addr:    ps.Addr().String(),
			Parts:   []int{2, 3},
			Timeout: 2 * time.Second,
		}},
	}
	if clientCfg != nil {
		clientCfg(&cfg)
	}
	client, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerTestOps(t, client)
	th, err := client.Register()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !th.unregistered {
			th.Unregister()
		}
		client.Shutdown(time.Second)
	})
	return client, th, server
}

func TestRemoteSyncReadYourWrites(t *testing.T) {
	_, th := startCluster(t, nil)
	// Keys 2 and 6 both live on remote partition 2; key 1 is local.
	val := []byte("over-the-wire")
	res := th.ExecuteSync(2, remotePut, Args{P: val})
	if res.Err != nil {
		t.Fatalf("remote put: %v", res.Err)
	}
	got := th.ExecuteSync(2, remoteGet, Args{})
	if got.Err != nil || got.U != 1 {
		t.Fatalf("remote get: U=%d err=%v", got.U, got.Err)
	}
	if !bytes.Equal(got.P.([]byte), val) {
		t.Fatalf("remote get returned %q, want %q", got.P, val)
	}
	// Async put then sync get on the same link must observe the put:
	// both ride one pinned connection in stage order.
	th.ExecuteAsync(6, remotePut, Args{P: []byte("async")})
	got = th.ExecuteSync(6, remoteGet, Args{})
	if got.U != 1 || !bytes.Equal(got.P.([]byte), []byte("async")) {
		t.Fatalf("read-your-writes across async: U=%d P=%q err=%v", got.U, got.P, got.Err)
	}
	// Local keys stay local.
	if res := th.ExecuteSync(1, remotePut, Args{P: []byte("local")}); res.Err != nil {
		t.Fatalf("local put: %v", res.Err)
	}
	th.Drain()
}

func TestRemoteErrorIdentity(t *testing.T) {
	_, th := startCluster(t, nil)
	// remoteGet on a missing key is not an error; use an unregistered op
	// to provoke one. opMissing is top-level but never registered.
	res := th.ExecuteSync(2, opMissing, Args{})
	if !errors.Is(res.Err, ErrOpNotRegistered) {
		t.Fatalf("unregistered op: %v", res.Err)
	}
}

func opMissing(p *Partition, key uint64, a *Args) Result { return Result{} }

// TestRemotePanicCrossesAsError pins what a panic in an operation served by a
// peer process does. A synchronous one returns a Result whose Err reads "dps:
// remote op panicked: <value>" — a wire.OpError at the sender, since the
// panic value itself cannot cross the process boundary — the serving
// runtime's Panics counter rises by one, and the link serves the next
// operation. The fire-and-forget operations of the same burst have applied
// once Drain returns. A panicking fire-and-forget one neither kills the server
// nor stalls Drain, and the operation after it on the link still applies. The
// first burst borrows the peer server's thread of locality 0, so it runs
// inline toward an unattended locality 2 in one row and crosses the ring of a
// locality 2 whose thread is inside a call in the other, where the panic is
// recovered by the serving thread and re-raised at the collect.
func TestRemotePanicCrossesAsError(t *testing.T) {
	for _, ring := range []bool{false, true} {
		name := "inline"
		if ring {
			name = "across the ring"
		}
		t.Run(name, func(t *testing.T) { testRemotePanic(t, ring) })
	}
}

func testRemotePanic(t *testing.T, ring bool) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, th, server := startClusterOn(t, ln, nil)
	if ring {
		srv, err := server.RegisterAt(2)
		if err != nil {
			t.Fatal(err)
		}
		var stop atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer srv.Unregister()
			for !stop.Load() {
				srv.Serve()
			}
		}()
		t.Cleanup(func() {
			stop.Store(true)
			<-done
		})
	}

	// One burst toward partition 2: the panicking operation, then four slow
	// fire-and-forget puts, which span a second ring slot.
	before := server.Metrics()
	var c Completion
	th.ExecuteInto(&c, 2, remotePanic, Args{})
	fired := []uint64{6, 10, 14, 18}
	for _, k := range fired {
		th.ExecuteAsync(k, remoteSlowPut, Args{P: []byte("fired")})
	}
	th.Drain()
	kv := lockKV(server.Partition(2))
	for _, k := range fired {
		if _, ok := kv.m[k]; !ok {
			t.Errorf("fire-and-forget put of key %d not applied when Drain returned", k)
		}
	}
	kv.mu.Unlock()
	res := c.Result()
	var opErr wire.OpError
	if !errors.As(res.Err, &opErr) || res.Err.Error() != "dps: remote op panicked: boom 2" {
		t.Fatalf("panicking op: Err = %#v, want wire.OpError(\"dps: remote op panicked: boom 2\")", res.Err)
	}
	m := server.Metrics().Delta(before).Totals
	if m.Panics != 1 {
		t.Errorf("serving runtime's Panics = %d, want 1", m.Panics)
	}
	if n := uint64(1 + len(fired)); ring && m.RemoteSends != n || !ring && m.UnattendedExecs != n {
		t.Errorf("burst of %d: %d sent over the ring, %d run inline", n, m.RemoteSends, m.UnattendedExecs)
	}
	if res := th.ExecuteSync(2, remotePut, Args{P: []byte("after")}); res.Err != nil {
		t.Fatalf("put after the panic: %v", res.Err)
	}

	th.ExecuteAsync(6, remotePanic, Args{})
	th.ExecuteAsync(6, remotePut, Args{P: []byte("after async")})
	start := time.Now()
	th.Drain()
	if d := time.Since(start); d > time.Second {
		t.Errorf("Drain after a panicking fire-and-forget op took %v", d)
	}
	if n := server.Metrics().Totals.Panics; n != 2 {
		t.Errorf("serving runtime's Panics = %d, want 2", n)
	}
	got := th.ExecuteSync(6, remoteGet, Args{})
	if got.Err != nil || got.U != 1 || !bytes.Equal(got.P.([]byte), []byte("after async")) {
		t.Fatalf("get after the fire-and-forget panic = (%d, %v, %v), want the put after it", got.U, got.P, got.Err)
	}
}

// TestPeerServerLeavesLocalitiesUnattended: the peer server's threads wait
// for bursts under an Idle mark, so a locality whose only thread is the peer
// server's is unattended, and an operation a thread of the serving runtime
// sends toward it runs on that thread at once, without a stall rescue. Every
// pooled thread has served a burst first, and is back under its mark.
func TestPeerServerLeavesLocalitiesUnattended(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, client, server := startClusterOn(t, ln, nil)
	for i := 0; i < rtParts; i++ {
		if res := client.ExecuteSync(2, remotePut, Args{P: []byte("x")}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	th, err := server.RegisterAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Unregister()

	before := server.Metrics()
	start := time.Now()
	res := th.ExecuteSync(1, remotePut, Args{P: []byte("x")})
	elapsed := time.Since(start)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	m := server.Metrics().Delta(before).Totals
	if m.UnattendedExecs != 1 || m.Stalls != 0 {
		t.Fatalf("UnattendedExecs +%d, Stalls +%d (Rescued +%d), want +1 and +0: the operation waited for the peer server's thread",
			m.UnattendedExecs, m.Stalls, m.Rescued)
	}
	if elapsed > 10*time.Millisecond {
		t.Fatalf("the inline operation took %v", elapsed)
	}
}

func TestRemoteAsyncDrain(t *testing.T) {
	_, th := startCluster(t, nil)
	const n = 100
	for i := 0; i < n; i++ {
		th.ExecuteAsync(uint64(2+4*i), remotePut, Args{P: []byte{byte(i)}})
	}
	th.Drain()
	res := th.ExecuteSync(2, remoteLen, Args{})
	if res.Err != nil || res.U != n {
		t.Fatalf("after drain: partition 2 holds %d keys (err=%v), want %d", res.U, res.Err, n)
	}
}

func TestRemoteExecuteAll(t *testing.T) {
	_, th := startCluster(t, nil)
	for k := uint64(0); k < rtParts; k++ {
		if res := th.ExecuteSync(k, remotePut, Args{P: []byte("x")}); res.Err != nil {
			t.Fatalf("put key %d: %v", k, res.Err)
		}
	}
	res := th.ExecuteAll(remoteLen, Args{}, func(results []Result) Result {
		var total uint64
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("partition %d: %v", i, r.Err)
			}
			total += r.U
		}
		return Result{U: total}
	})
	if res.U != rtParts {
		t.Fatalf("ExecuteAll total = %d, want %d", res.U, rtParts)
	}
}

// TestRemoteAsyncBurstSpansPartitions: fire-and-forget operations that
// alternate between two partitions of one peer pack into full frames — a
// frame is a burst toward the peer process, not toward one partition — and
// every one of them applies.
func TestRemoteAsyncBurstSpansPartitions(t *testing.T) {
	client, th := startCluster(t, nil)
	const n = 256
	key := func(i int) uint64 { return uint64(4*(i/2) + 2 + i%2) } // partitions 2, 3, 2, 3, …
	before := client.PeerStats(0).FramesSent
	for i := 0; i < n; i++ {
		th.ExecuteAsync(key(i), remotePut, Args{P: []byte{byte(i), byte(i >> 8)}})
	}
	th.Drain()
	if frames, limit := client.PeerStats(0).FramesSent-before, uint64((n+wire.MaxBurst-1)/wire.MaxBurst+4); frames > limit {
		t.Fatalf("%d fire-and-forget operations over two peer partitions took %d frames, want at most %d", n, frames, limit)
	}
	for i := 0; i < n; i++ {
		res := th.ExecuteSync(key(i), remoteGet, Args{})
		if res.Err != nil || res.U != 1 || !bytes.Equal(res.P.([]byte), []byte{byte(i), byte(i >> 8)}) {
			t.Fatalf("key %d: U=%d P=%v err=%v", key(i), res.U, res.P, res.Err)
		}
	}
}

// BenchmarkPeerAsyncStream is one sender's fire-and-forget stream of
// 128-byte puts alternating between a peer's two partitions, with a Drain
// every 512 operations, as a bulk load runs. frames/op is the wire frames
// the stream sent per operation.
func BenchmarkPeerAsyncStream(b *testing.B) {
	client, th := startCluster(b, nil)
	args := Args{P: make([]byte, 128)}
	before := client.PeerStats(0).FramesSent
	report := reportPaths(b, client)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		th.ExecuteAsync(uint64(4*(n/2%1024)+2+n%2), remotePut, args) // partitions 2, 3, 2, 3, …
		if n%512 == 511 {
			th.Drain()
		}
	}
	th.Drain()
	report()
	b.ReportMetric(float64(client.PeerStats(0).FramesSent-before)/float64(b.N), "frames/op")
}

// TestRemoteExecuteAllOneFrame: a broadcast's shares toward a peer's two
// partitions ride one frame.
func TestRemoteExecuteAllOneFrame(t *testing.T) {
	client, th := startCluster(t, nil)
	before := client.PeerStats(0).FramesSent
	th.ExecuteAll(remoteLen, Args{}, nil)
	if frames := client.PeerStats(0).FramesSent - before; frames != 1 {
		t.Fatalf("ExecuteAll over two peer partitions sent %d frames, want 1", frames)
	}
}

// TestPeerServerMixedFrame: a frame whose entries mix partitions this
// process serves with ones it does not answers each unserved entry with
// its own error and still applies the served ones, in the frame's order.
func TestPeerServerMixedFrame(t *testing.T) {
	client, th := startCluster(t, nil) // the client serves 0 and 1; 2 and 3 are its peer's
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := client.NewPeerServer(ln)
	if err != nil {
		t.Fatal(err)
	}
	go ps.Serve()
	t.Cleanup(func() { ps.Close() })

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var f wire.Frame
	if readFrame(t, c, &f); f.Type != wire.FrameHello {
		t.Fatalf("first frame has type %d, want hello", f.Type)
	}
	req, err := wire.AppendRequest(nil, 1, 0, []wire.ReqOp{
		{Code: codePut, Part: 1, Key: 1, Data: []byte("one")},
		{Code: codePut, Part: 2, Key: 2, Data: []byte("two")},
		{Code: codePut, Part: 0, Key: 4, Data: []byte("four")},
		{Code: codeLen, Part: 9, Key: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	if readFrame(t, c, &f); f.Type != wire.FrameResponse || len(f.Resp) != 4 {
		t.Fatalf("response: type %d, %d entries", f.Type, len(f.Resp))
	}
	for i, want := range []string{"", errNotServed.Error(), "", errNotServed.Error()} {
		if f.Resp[i].Err != want {
			t.Fatalf("entry %d: error %q, want %q", i, f.Resp[i].Err, want)
		}
	}
	for _, kv := range []struct {
		key  uint64
		want string
	}{{1, "one"}, {4, "four"}} {
		if res := th.ExecuteSync(kv.key, remoteGet, Args{}); res.U != 1 || !bytes.Equal(res.P.([]byte), []byte(kv.want)) {
			t.Fatalf("key %d: U=%d P=%q err=%v, want %q", kv.key, res.U, res.P, res.Err, kv.want)
		}
	}
	if res := th.ExecuteSync(2, remoteGet, Args{}); res.Err != nil || res.U != 0 {
		t.Fatalf("key 2, which the frame's server does not serve: U=%d err=%v, want absent", res.U, res.Err)
	}
}

// readFrame reads and decodes the next whole frame off c into f.
func readFrame(t *testing.T, c net.Conn, f *wire.Frame) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf []byte
	for {
		n, err := wire.FrameLen(buf)
		if err == nil && len(buf) >= n {
			if _, err := wire.DecodeFrame(buf[:n], f); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err != nil && !errors.Is(err, wire.ErrShort) {
			t.Fatal(err)
		}
		b := make([]byte, 4096)
		m, err := c.Read(b)
		if m == 0 && err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b[:m]...)
	}
}

// TestRemoteCompletionPolling: polling a peer operation reads its connection,
// so a lone poller's completion resolves within a round trip or so, not when
// the heartbeat next reads the idle link (heartbeatInterval, 250 ms).
func TestRemoteCompletionPolling(t *testing.T) {
	_, th := startCluster(t, nil)
	if res := th.ExecuteSync(3, remoteLen, Args{}); res.Err != nil {
		t.Fatal(res.Err) // the connection is up before the clock starts
	}
	var c Completion
	start := time.Now()
	th.ExecuteInto(&c, 3, remotePut, Args{P: []byte("poll")})
	for {
		if res, ok := c.Ready(); ok {
			if res.Err != nil {
				t.Fatalf("polled completion: %v", res.Err)
			}
			break
		}
	}
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Fatalf("polled completion resolved after %v, want within 50ms", took)
	}
	if res := th.ExecuteSync(3, remoteGet, Args{}); res.Err != nil || res.U != 1 {
		t.Fatalf("get: U=%d err=%v", res.U, res.Err)
	}
}

func TestRemoteRegistrationRules(t *testing.T) {
	client, th := startCluster(t, nil)
	if th.Locality() >= 2 {
		t.Fatalf("Register picked remote locality %d", th.Locality())
	}
	if _, err := client.RegisterAt(2); err == nil {
		t.Fatal("RegisterAt on a peer-owned partition succeeded")
	}
	if !client.Partition(2).Remote() || client.Partition(0).Remote() {
		t.Fatal("Remote() misreports ownership")
	}
}

// TestRemoteRetryUntilDeadline keeps the default policy against an
// unreachable peer: the op rides the retry queue until its deadline and
// surfaces ErrPeerDown (never sent, so retrying elsewhere is safe).
func TestRemoteRetryUntilDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	rt, err := New(Config{
		Partitions: rtParts,
		Hash:       rtHash,
		Init:       mapInit,
		Peers:      []Peer{{Addr: addr, Parts: []int{2, 3}, Timeout: 300 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerTestOps(t, rt)
	th, err := rt.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		th.Unregister()
		rt.Shutdown(2 * time.Second)
	}()
	start := time.Now()
	res := th.ExecuteSync(2, remoteGet, Args{})
	if res.Err == nil {
		t.Fatal("op against unreachable peer succeeded")
	}
	if !errors.Is(res.Err, ErrPeerDown) && !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("unreachable peer under retry: err=%v, want ErrPeerDown or ErrTimeout", res.Err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("retry-until-deadline took %v", d)
	}
}

// TestRemoteDropFrameTimesOut: with no OpTimeout, a wait on a peer's
// partition keeps Peer.Timeout's bound.
func TestRemoteDropFrameTimesOut(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 1, DropFrameProb: 1.0})
	_, th := startCluster(t, func(cfg *Config) {
		cfg.Chaos = inj
		cfg.Peers[0].Timeout = 250 * time.Millisecond
	})
	start := time.Now()
	if res := th.ExecuteSync(2, remoteGet, Args{}); !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("dropped frame: res.Err=%v, want ErrTimeout", res.Err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timeout took %v", d)
	}
	if c := inj.Counts(); c.FramesDropped == 0 {
		t.Fatal("injector dropped no frames")
	}
}

func TestRemoteMetrics(t *testing.T) {
	client, th := startCluster(t, nil)
	th.ExecuteSync(2, remotePut, Args{P: []byte("m")})
	th.ExecuteSync(2, remoteGet, Args{})
	m := client.Metrics()
	if m.Totals.RemoteOps < 2 {
		t.Fatalf("RemoteOps = %d, want >= 2", m.Totals.RemoteOps)
	}
	if m.Totals.RemoteBytes == 0 {
		t.Fatal("RemoteBytes = 0")
	}
	if len(m.Peers) != 1 {
		t.Fatalf("Peers metrics length %d, want 1", len(m.Peers))
	}
	pm := m.Peers[0]
	if pm.FramesSent == 0 || pm.FramesRecvd == 0 || pm.Ops < 2 {
		t.Fatalf("peer metrics not accounted: %+v", pm)
	}
	if pm.Pending != 0 {
		t.Fatalf("peer has %d pending bursts after sync ops", pm.Pending)
	}
}

// sendTracer records the sender-side hooks; OnServe arrives from other
// threads, hence the lock.
type sendTracer struct {
	NopTracer
	mu        sync.Mutex
	sends     []traceEvent
	completes []traceEvent
}

type traceEvent struct {
	part int
	key  uint64
	sync bool
}

func (tr *sendTracer) OnSend(tid, part int, key uint64, sync bool) {
	tr.mu.Lock()
	tr.sends = append(tr.sends, traceEvent{part, key, sync})
	tr.mu.Unlock()
}

func (tr *sendTracer) OnComplete(tid, part int, key uint64, d time.Duration) {
	tr.mu.Lock()
	tr.completes = append(tr.completes, traceEvent{part, key, true})
	tr.mu.Unlock()
}

// take returns and clears what was recorded for partition part.
func (tr *sendTracer) take(part int) (sends, completes []traceEvent) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, e := range tr.sends {
		if e.part == part {
			sends = append(sends, e)
		}
	}
	for _, e := range tr.completes {
		if e.part == part {
			completes = append(completes, e)
		}
	}
	tr.sends, tr.completes = nil, nil
	return sends, completes
}

// TestSendFormsOnBothTiers runs every public form of a delegation toward a
// partition reached over a ring and toward one reached over the wire, with no
// OpTimeout and with one, and expects the same behaviour from all of them:
// read-your-writes, one OnSend and one OnComplete carrying the operation's
// partition and key, one sync-delegation latency sample per delegated
// partition — and, toward the peer, an unregistered op refused with
// ErrOpNotRegistered before anything is sent. The deadline rule forks no
// send path: a bounded run leaves the same footprint as an unbounded one.
func TestSendFormsOnBothTiers(t *testing.T) {
	for _, d := range []time.Duration{0, 2 * time.Second} {
		t.Run(fmt.Sprintf("OpTimeout=%v", d), func(t *testing.T) { testSendForms(t, d) })
	}
}

func testSendForms(t *testing.T, opTimeout time.Duration) {
	tr := &sendTracer{}
	client, th := startCluster(t, func(cfg *Config) {
		cfg.Tracer = tr
		cfg.OpTimeout = opTimeout
	})
	if th.Locality() != 0 {
		t.Fatalf("test thread registered at locality %d, want 0", th.Locality())
	}
	defer startServer(t, client, 1)()

	lo := func(part int) uint64 { l, _ := client.Partition(part).Range(); return l }
	forms := []struct {
		name string
		// key is the key the form sends for partition part, given a free choice k.
		key func(part int, k uint64) uint64
		// delegated is how many partitions one call delegates to.
		delegated uint64
		run       func(part int, key uint64, op Op, args Args) Result
	}{
		{"ExecuteSync", nil, 1, func(part int, key uint64, op Op, args Args) Result {
			return th.ExecuteSync(key, op, args)
		}},
		{"ExecuteInto+Result", nil, 1, func(part int, key uint64, op Op, args Args) Result {
			var c Completion
			th.ExecuteInto(&c, key, op, args)
			return c.Result()
		}},
		{"ExecutePartition", nil, 1, func(part int, key uint64, op Op, args Args) Result {
			return th.ExecutePartition(part, key, op, args)
		}},
		{"ExecuteAll", func(part int, k uint64) uint64 { return lo(part) }, rtParts - 1,
			func(part int, key uint64, op Op, args Args) Result {
				return th.ExecuteAll(op, args, func(results []Result) Result { return results[part] })
			}},
	}
	samples := func() uint64 { return client.Metrics().Latency.SyncDelegation.Count }
	// expectOne checks one synchronous operation's footprint on partition part.
	expectOne := func(label string, part int, key uint64, before, delegated uint64) {
		t.Helper()
		sends, completes := tr.take(part)
		want := traceEvent{part, key, true}
		if len(sends) != 1 || sends[0] != want {
			t.Errorf("%s: OnSend events %+v, want exactly %+v", label, sends, want)
		}
		if len(completes) != 1 || completes[0] != want {
			t.Errorf("%s: OnComplete events %+v, want exactly %+v", label, completes, want)
		}
		if got := samples() - before; got != delegated {
			t.Errorf("%s: %d sync-delegation samples, want %d", label, got, delegated)
		}
	}

	for tier, part := range map[string]int{"ring": 1, "peer": 2} {
		for i, f := range forms {
			label := tier + "/" + f.name
			key := uint64(part + rtParts*(i+1))
			if f.key != nil {
				key = f.key(part, key)
			}
			val := []byte(label)

			before := samples()
			if res := f.run(part, key, remotePut, Args{P: val}); res.Err != nil {
				t.Fatalf("%s put: %v", label, res.Err)
			}
			expectOne(label+" put", part, key, before, f.delegated)

			before = samples()
			res := f.run(part, key, remoteGet, Args{})
			if res.Err != nil || res.U != 1 || !bytes.Equal(res.P.([]byte), val) {
				t.Fatalf("%s get: U=%d P=%q err=%v, want %q", label, res.U, res.P, res.Err, val)
			}
			expectOne(label+" get", part, key, before, f.delegated)

			if tier != "peer" {
				continue
			}
			res = f.run(part, key, opMissing, Args{})
			if !errors.Is(res.Err, ErrOpNotRegistered) {
				t.Errorf("%s unregistered op: res.Err=%v, want ErrOpNotRegistered", label, res.Err)
			}
			if sends, completes := tr.take(part); len(sends)+len(completes) != 0 {
				t.Errorf("%s unregistered op: traced %+v %+v, want nothing sent", label, sends, completes)
			}
		}

		// ExecuteAsync + Drain: one asynchronous OnSend, no completion, no
		// latency sample, and the write is there after the barrier.
		label := tier + "/ExecuteAsync+Drain"
		key := uint64(part + rtParts*(len(forms)+1))
		tr.take(part)
		before := samples()
		th.ExecuteAsync(key, remotePut, Args{P: []byte(label)})
		th.Drain()
		sends, completes := tr.take(part)
		if want := (traceEvent{part, key, false}); len(sends) != 1 || sends[0] != want || len(completes) != 0 {
			t.Errorf("%s: OnSend %+v OnComplete %+v, want one %+v and no completion", label, sends, completes, want)
		}
		if got := samples() - before; got != 0 {
			t.Errorf("%s: %d sync-delegation samples, want 0", label, got)
		}
		if res := th.ExecuteSync(key, remoteGet, Args{}); res.U != 1 || !bytes.Equal(res.P.([]byte), []byte(label)) {
			t.Errorf("%s: get after Drain: U=%d P=%q err=%v", label, res.U, res.P, res.Err)
		}
		if tier == "peer" {
			abandoned := client.Metrics().Totals.Abandoned
			th.ExecuteAsync(key, opMissing, Args{})
			if got := client.Metrics().Totals.Abandoned - abandoned; got != 1 {
				t.Errorf("%s unregistered op: Abandoned rose by %d, want 1", label, got)
			}
		}
	}
}

// blockPeer is closed to release remoteBlock; the test that sends the op
// makes it.
var blockPeer chan struct{}

func remoteBlock(p *Partition, key uint64, a *Args) Result {
	<-blockPeer
	return Result{}
}

// busyOp occupies its server for 20µs: long enough that the sender of a
// stream of them refills its ring faster than one server drains it, so that
// server never sees an empty serve pass.
func busyOp(p *Partition, key uint64, a *Args) Result {
	for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
	}
	return Result{}
}

// TestRemoteTimeoutWhileServing: a wait on a connected peer that never
// answers must time out even though the waiter's own locality has a steady
// stream of delegated work to serve in the meantime.
func TestRemoteTimeoutWhileServing(t *testing.T) {
	const timeout = 50 * time.Millisecond
	blockPeer = make(chan struct{})
	client, waiter := startCluster(t, func(cfg *Config) { cfg.OpTimeout = timeout })
	if waiter.Locality() != 0 {
		t.Fatalf("waiter registered at locality %d, want 0", waiter.Locality())
	}
	flooder, err := client.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	// The flooder keeps the waiter's locality supplied with work; only the
	// waiter can serve it.
	var stop atomic.Bool
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		defer flooder.Unregister()
		for i := uint64(0); !stop.Load(); i++ {
			flooder.ExecuteAsync(rtParts*(i%64), busyOp, Args{})
		}
	}()
	// Runs before startCluster's cleanup: release the peer's server, and
	// serve the flooder's last operations until it has unregistered.
	t.Cleanup(func() {
		stop.Store(true)
		close(blockPeer)
		for {
			select {
			case <-flooded:
				return
			default:
				waiter.Serve()
			}
		}
	})

	abandoned := client.Metrics().Totals.Abandoned
	type outcome struct {
		res     Result
		elapsed time.Duration
	}
	got := make(chan outcome, 1)
	go func() {
		start := time.Now()
		res := waiter.ExecuteSync(2, remoteBlock, Args{})
		got <- outcome{res, time.Since(start)}
	}()
	var o outcome
	select {
	case o = <-got:
	case <-time.After(5 * time.Second):
		// Without its stream of work the wait does reach its deadline check;
		// let it, so the thread is back in this goroutine's hands.
		stop.Store(true)
		<-got
		t.Fatalf("ExecuteSync under OpTimeout %v still waiting after 5s while its locality had work", timeout)
	}
	if !errors.Is(o.res.Err, ErrTimeout) {
		t.Fatalf("res.Err=%v, want ErrTimeout", o.res.Err)
	}
	if o.elapsed > 4*timeout {
		t.Errorf("timed out after %v, want within %v", o.elapsed, 4*timeout)
	}
	if d := client.Metrics().Totals.Abandoned - abandoned; d != 1 {
		t.Errorf("Abandoned rose by %d, want 1", d)
	}
}

// TestRemoteShutdownWithHungPeer ensures Shutdown's budget holds when a
// peer stops answering: the blocked sender unwinds via the peer timeout
// or the shutdown's ErrClosed, and Shutdown itself returns on time.
func TestRemoteShutdownWithHungPeer(t *testing.T) {
	// A listener that accepts and then ignores the connection entirely
	// (never even sends a hello): ensureConn fails, ops fail fast.
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
			_ = c // hold the conn open, say nothing
		}
	}()
	rt, err := New(Config{
		Partitions: rtParts,
		Hash:       rtHash,
		Init:       mapInit,
		Peers:      []Peer{{Addr: ln.Addr().String(), Parts: []int{3}, Timeout: 200 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerTestOps(t, rt)
	th, err := rt.Register()
	if err != nil {
		t.Fatal(err)
	}
	res := th.ExecuteSync(3, remoteGet, Args{})
	if res.Err == nil {
		t.Fatal("op against hung peer succeeded")
	}
	th.Unregister()
	start := time.Now()
	if _, err := rt.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("shutdown took %v with a hung peer", d)
	}
}

// connWatcher counts the connections its listener accepted that are still
// open: the wire server closes its side once its reader sees the peer go.
type connWatcher struct {
	net.Listener
	open atomic.Int32
}

func (w *connWatcher) Accept() (net.Conn, error) {
	c, err := w.Listener.Accept()
	if err != nil {
		return nil, err
	}
	w.open.Add(1)
	return &watchedConn{Conn: c, w: w}, nil
}

type watchedConn struct {
	net.Conn
	w    *connWatcher
	once sync.Once
}

func (c *watchedConn) Close() error {
	c.once.Do(func() { c.w.open.Add(-1) })
	return c.Conn.Close()
}

// TestCloseSeversPeerLinks: Close is Shutdown with no threads to sweep, so it
// too severs the links a delegation dialled — the wire server sees the
// connection close, and the link's heartbeat goroutine exits with it. (While
// Close only marked the runtime closed, the connection stayed open and its
// goroutines ran on.)
func TestCloseSeversPeerLinks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &connWatcher{Listener: ln}
	client, th, _ := startClusterOn(t, w, nil)
	if res := th.ExecuteSync(2, remotePut, Args{P: []byte("dial")}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if w.open.Load() == 0 {
		t.Fatal("the delegation dialled no connection")
	}
	th.Unregister()
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); w.open.Load() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d peer connections still open 1s after Close", w.open.Load())
		}
	}
}

func TestPeerConfigValidation(t *testing.T) {
	base := Config{Partitions: rtParts, Hash: rtHash}
	cases := []struct {
		name  string
		peers []Peer
	}{
		{"overlap", []Peer{
			{Addr: "127.0.0.1:1", Parts: []int{1, 2}},
			{Addr: "127.0.0.1:2", Parts: []int{2, 3}},
		}},
		{"all-remote", []Peer{{Addr: "127.0.0.1:1", Parts: []int{0, 1, 2, 3}}}},
		{"no-addr", []Peer{{Parts: []int{1}}}},
		{"out-of-range", []Peer{{Addr: "127.0.0.1:1", Parts: []int{7}}}},
		{"empty-parts", []Peer{{Addr: "127.0.0.1:1"}}},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Peers = tc.peers
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid peer config", tc.name)
		}
	}
}

func TestRegisterOpRules(t *testing.T) {
	rt, err := New(Config{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.RegisterOp(1, remotePut); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterOp(1, remotePut); err != nil {
		t.Fatalf("idempotent re-register: %v", err)
	}
	if err := rt.RegisterOp(1, remoteGet); err == nil {
		t.Fatal("code collision accepted")
	}
	if err := rt.RegisterOp(2, remotePut); err == nil {
		t.Fatal("op re-registered under second code")
	}
	if err := rt.RegisterOp(3, nil); err == nil {
		t.Fatal("nil op accepted")
	}
}

// TestPeerSendersShareConnection: threads whose links ride one connection
// (tid mod the peer's pool) take its reader role in turn, each reading for
// the others while it waits. Every thread mixes ExecuteSync, ExecuteInto
// waves and ExecuteAsync with Drain on keys of its own in both peer
// partitions: every completion resolves once and without error (a burst
// resolved twice panics closing its done channel), every thread reads its own
// writes, and no wait sees a peer stall.
func TestPeerSendersShareConnection(t *testing.T) {
	const senders, rounds, keys = 6, 60, 4
	client, th := startCluster(t, nil)
	ths := []*Thread{th}
	for len(ths) < senders {
		extra, err := client.Register()
		if err != nil {
			t.Fatal(err)
		}
		ths = append(ths, extra)
	}
	errs := make(chan error, senders)
	var wg sync.WaitGroup
	for i, th := range ths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- shareConnection(th, i, senders, rounds, keys)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	for _, th := range ths[1:] {
		th.Unregister()
	}
	m := client.Metrics()
	if m.Totals.PeerStalls != 0 || m.Totals.Abandoned != 0 {
		t.Errorf("PeerStalls %d, Abandoned %d, want 0 and 0", m.Totals.PeerStalls, m.Totals.Abandoned)
	}
	if pm := m.Peers[0]; pm.Pending != 0 || pm.Timeouts != 0 || pm.Failed != 0 {
		t.Errorf("peer link: %d bursts pending, %d timeouts, %d failed, want none", pm.Pending, pm.Timeouts, pm.Failed)
	}
}

// shareConnection is one thread of TestPeerSendersShareConnection: thread i
// of n owns keys 2+4(i+n·k) and 3+4(i+n·k), k < keys, on the peer's
// partitions 2 and 3.
func shareConnection(th *Thread, i, n, rounds, keys int) error {
	key := func(k int) uint64 { return uint64(2 + k%2 + 4*(i+n*(k/2))) }
	val := func(r, k int) []byte { return []byte(fmt.Sprintf("%d/%d/%d", i, r, k)) }
	check := func(r int) error {
		for k := 0; k < 2*keys; k++ {
			res := th.ExecuteSync(key(k), remoteGet, Args{})
			if res.Err != nil {
				return fmt.Errorf("thread %d round %d: get key %d: %v", i, r, key(k), res.Err)
			}
			if got, _ := res.P.([]byte); !bytes.Equal(got, val(r, k)) {
				return fmt.Errorf("thread %d round %d: key %d reads %q, want its own write %q", i, r, key(k), got, val(r, k))
			}
		}
		return nil
	}
	cs := make([]Completion, 2*keys)
	for r := 0; r < rounds; r++ {
		switch r % 3 {
		case 0:
			for k := 0; k < 2*keys; k++ {
				if res := th.ExecuteSync(key(k), remotePut, Args{P: val(r, k)}); res.Err != nil {
					return fmt.Errorf("thread %d round %d: put: %v", i, r, res.Err)
				}
			}
		case 1:
			for k := 0; k < 2*keys; k++ {
				th.ExecuteInto(&cs[k], key(k), remotePut, Args{P: val(r, k)})
			}
			for k := 2*keys - 1; k >= 0; k-- {
				if res := cs[k].Result(); res.Err != nil {
					return fmt.Errorf("thread %d round %d: wave put: %v", i, r, res.Err)
				}
			}
		default:
			for k := 0; k < 2*keys; k++ {
				th.ExecuteAsync(key(k), remotePut, Args{P: val(r, k)})
			}
			th.Drain()
		}
		if err := check(r); err != nil {
			return err
		}
	}
	return nil
}

// TestReadingWaiterLeavesLocalityUnattended: a thread waiting on a peer reads
// the connection itself, and while it is blocked in that read it counts as
// parked toward its locality's unattended rule, so an operation another thread
// sends toward its locality runs inline on that sender: no ring send and no
// wake.
func TestReadingWaiterLeavesLocalityUnattended(t *testing.T) {
	blockPeer = make(chan struct{})
	client, a := startCluster(t, nil)
	if a.Locality() != 0 {
		t.Fatalf("waiter registered at locality %d, want 0", a.Locality())
	}
	b, err := client.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Unregister()
	waited := make(chan Result, 1)
	go func() { waited <- a.ExecuteSync(2, remoteBlock, Args{}) }()
	defer func() {
		close(blockPeer)
		if res := <-waited; res.Err != nil {
			t.Errorf("blocked operation: %v", res.Err)
		}
	}()
	// After 10 ms the waiter reads for a millisecond at a time, so it is
	// almost always inside a read; an attempt that lands between two reads
	// publishes instead and is tried again.
	time.Sleep(10 * time.Millisecond)
	var m obs.Totals
	for try := 0; try < 5; try++ {
		time.Sleep(time.Duration(try) * 300 * time.Microsecond)
		before := client.Metrics()
		if res := b.ExecuteSync(0, remoteLen, Args{}); res.Err != nil {
			t.Fatal(res.Err)
		}
		m = client.Metrics().Delta(before).Totals
		if m.UnattendedExecs == 1 && m.Wakes == 0 && m.RemoteSends == 0 {
			return
		}
	}
	t.Fatalf("UnattendedExecs +%d, Wakes +%d, RemoteSends +%d, want +1, +0, +0: the reading waiter's locality was attended",
		m.UnattendedExecs, m.Wakes, m.RemoteSends)
}

// TestPublishTowardReadingWaiter: a sender that is not caught up publishes
// toward the locality of a thread blocked in a peer connection's read. No wake
// reaches that read, so the publish must not pick the thread (a pick would
// also clear its parked mark and leave the locality looking attended): the
// sender finds the locality unattended and runs its own burst, well inside
// the reader's millisecond read.
func TestPublishTowardReadingWaiter(t *testing.T) {
	const rounds = 5
	blockPeer = make(chan struct{})
	client, a := startCluster(t, nil)
	defer close(blockPeer)
	b, err := client.RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Unregister()
	took := make([]time.Duration, rounds)
	for r := range took {
		// Staged while a is out of any wait: the put stays in b's open slot
		// toward locality 0, so b is not caught up there.
		b.ExecuteAsync(0, remotePut, Args{P: []byte("x")})
		waited := make(chan Result, 1)
		go func() { waited <- a.ExecuteSync(2, remoteBlock, Args{}) }()
		time.Sleep(10 * time.Millisecond) // a reads in 1 ms slices by now
		before := client.Metrics()
		start := time.Now()
		res := b.ExecuteSync(0, remoteLen, Args{})
		took[r] = time.Since(start)
		m := client.Metrics().Delta(before).Totals
		blockPeer <- struct{}{}
		if res := <-waited; res.Err != nil {
			t.Fatalf("round %d: blocked operation: %v", r, res.Err)
		}
		if res.Err != nil || res.U != 1 {
			t.Fatalf("round %d: len U=%d err=%v, want 1", r, res.U, res.Err)
		}
		if m.Wakes != 0 {
			t.Fatalf("round %d: publish woke %d threads of a locality whose only thread was reading, want 0", r, m.Wakes)
		}
	}
	slices.Sort(took)
	if med := took[rounds/2]; med > 500*time.Microsecond {
		t.Fatalf("median latency toward the reading thread's locality %v (all %v), want under 500µs", med, took)
	}
}
