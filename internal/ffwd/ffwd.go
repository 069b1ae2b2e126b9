// Package ffwd reimplements the ffwd delegation system (Roghanchi, Eriksson
// & Basu — SOSP '17), the baseline the paper's evaluation compares DPS
// against. ffwd splits cores into clients and a small number of dedicated
// servers (the published implementation supports at most four). Each client
// owns a private request line to each server; the server sweeps client lines
// round-robin, executes requests serially against its shard, and publishes
// responses in batches (up to 15 responses share one response line write in
// the C implementation — here the batch size bounds how many requests are
// executed between response publications, preserving the latency/throughput
// trade-off the paper discusses).
//
// The request lines are internal/ring padded slots — the same toggle-bit,
// one-line transport the DPS runtime delegates over — so the two systems
// differ only where the paper says they do: who serves (dedicated servers
// vs peers) and how responses are published (batched vs per message). The
// per-server scan is doorbell-driven like DPS's serve loop: clients ring a
// ring.Doorbell bit after publishing, so an idle sweep costs one shared
// read per 64 clients instead of one toggle line per registered client
// (with a periodic full sweep as the lost-bit fallback).
//
// Unlike DPS, ffwd servers are reserved: they run nothing but delegation
// processing, and clients spin while awaiting replies. Both properties are
// what Figures 3 and 6 of the paper measure the cost of.
package ffwd

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"dps/internal/ring"
)

// MaxServers is the most servers the published ffwd implementation
// supports (§5.1: "four servers (s4), the maximal number of servers it
// currently supports").
const MaxServers = 4

// DefaultBatch is the response batch size from the paper's analysis (§5.1:
// "one cache coherency operation for sending a batch of (up to 15)
// responses").
const DefaultBatch = ring.DefaultBatch

// ErrClosed is returned when using a closed ffwd instance.
var ErrClosed = errors.New("ffwd: closed")

// Args carries a request's arguments: up to four words (the C message
// format) plus one reference for Go ergonomics. It is the shared transport
// argument record, so requests have the same layout under ffwd and DPS.
type Args = ring.Args

// Result is a request's return value.
type Result = ring.Result

// Op is an operation executed by a server against its shard. Servers are
// single threads, so ops need no synchronization — the core simplification
// delegation buys (Table 1: complexity "easy", coherence "none").
type Op func(shard any, key uint64, args *Args) Result

// request is the payload of one client request line. The trailing pad
// keeps ring.Slot[request] a whole number of strides so distinct clients'
// lines never share a cache line (asserted below).
type request struct {
	op   Op
	key  uint64
	args Args
	res  Result
	_    [16]byte
}

// reqLine is one client's private request line to one server, built on the
// shared padded-slot primitive.
type reqLine = ring.Slot[request]

// Compile-time assertion: the padded line is a whole number of strides.
const _ = -(unsafe.Sizeof(reqLine{}) % ring.Stride)

// Exact-size pin, both directions: a request line is exactly one stride —
// the whole point of ffwd's layout is one coherence transfer per
// request/response — so padding drift that grows the line to two strides
// fails the build instead of doubling line traffic.
const (
	_ = ring.Stride - unsafe.Sizeof(reqLine{})
	_ = unsafe.Sizeof(reqLine{}) - ring.Stride
)

// System is an ffwd instance: dedicated server goroutines, each owning one
// shard of the protected data.
type System struct {
	servers int
	batch   int
	shards  []any
	// lines[s][c] is client c's request line to server s.
	lines [][]reqLine
	// bells[s] is server s's doorbell: bit c set means client c published
	// a request on lines[s][c] since the server's last collect.
	bells []*ring.Doorbell

	maxClients int
	// mu guards the id allocator (nextClient, freeIDs); only Register and
	// Unregister touch it.
	mu         sync.Mutex
	nextClient int
	freeIDs    []int
	closed     atomic.Bool
	wg         sync.WaitGroup
}

// Config parameterizes an ffwd System.
type Config struct {
	// Servers is the number of dedicated server threads (1..MaxServers).
	Servers int
	// MaxClients bounds concurrently registered clients. Defaults to 64.
	MaxClients int
	// Batch is the response batch size. Defaults to DefaultBatch.
	Batch int
	// ShardInit builds server s's shard. The data-structure is statically
	// partitioned across servers (§5.1: "ffwd deploys four servers and
	// statically partitions the data-structure across servers").
	ShardInit func(s int) any
}

// New creates the system and starts its server goroutines.
func New(cfg Config) (*System, error) {
	if cfg.Servers < 1 || cfg.Servers > MaxServers {
		return nil, fmt.Errorf("ffwd: servers must be in [1,%d], got %d", MaxServers, cfg.Servers)
	}
	if cfg.MaxClients == 0 {
		cfg.MaxClients = 64
	}
	if cfg.MaxClients < 1 {
		return nil, fmt.Errorf("ffwd: MaxClients must be >= 1, got %d", cfg.MaxClients)
	}
	if cfg.Batch == 0 {
		cfg.Batch = DefaultBatch
	}
	if cfg.Batch < 1 {
		return nil, fmt.Errorf("ffwd: Batch must be >= 1, got %d", cfg.Batch)
	}
	sys := &System{
		servers:    cfg.Servers,
		batch:      cfg.Batch,
		shards:     make([]any, cfg.Servers),
		lines:      make([][]reqLine, cfg.Servers),
		bells:      make([]*ring.Doorbell, cfg.Servers),
		maxClients: cfg.MaxClients,
	}
	for s := 0; s < cfg.Servers; s++ {
		if cfg.ShardInit != nil {
			sys.shards[s] = cfg.ShardInit(s)
		}
		sys.lines[s] = make([]reqLine, cfg.MaxClients)
		sys.bells[s] = ring.NewDoorbell(cfg.MaxClients)
	}
	for s := 0; s < cfg.Servers; s++ {
		sys.wg.Add(1)
		go sys.serverLoop(s)
	}
	return sys, nil
}

// Servers returns the server count.
func (sys *System) Servers() int { return sys.servers }

// Shard returns server s's shard.
func (sys *System) Shard(s int) any { return sys.shards[s] }

// ServerFor returns the server owning key (static partitioning by modulo).
func (sys *System) ServerFor(key uint64) int {
	return int(key % uint64(sys.servers))
}

// Close stops the servers and waits for them to exit. Outstanding client
// calls complete first (servers drain their lines before exiting).
func (sys *System) Close() {
	// The swap happens under mu so it serializes with Register: any
	// Register that wins the lock first completes before the close; any
	// that loses observes closed and returns ErrClosed instead of handing
	// out a client on a system whose servers are exiting.
	sys.mu.Lock()
	already := sys.closed.Swap(true)
	sys.mu.Unlock()
	if already {
		return
	}
	sys.wg.Wait()
}

// serveScanEvery is the full-sweep cadence of the doorbell-driven server
// loop: one sweep in this many visits every client line regardless of
// doorbell state, bounding the delay of a bit lost between a collect and a
// crash. Power of two so the cadence test is a mask.
const serveScanEvery = 64

// serverLoop is one dedicated server: visit the client request lines whose
// doorbell bits are set, execute pending requests serially, and publish
// responses in batches. Every serveScanEvery-th sweep — and every sweep
// once Close has been called — scans all lines, so the exit condition
// ("a full sweep served nothing after close") and the lost-bit fallback
// stay exact. After the one-time setup the sweep allocates nothing — the
// response batch reuses a fixed-capacity buffer.
func (sys *System) serverLoop(s int) {
	defer sys.wg.Done()
	lines := sys.lines[s]
	shard := sys.shards[s]
	bell := sys.bells[s]
	// pendingResp collects executed lines whose toggles are not yet
	// cleared — the response batch. It and the two closures below are
	// allocated once per server, not per operation.
	pendingResp := make([]*reqLine, 0, sys.batch)
	flush := func() {
		for _, l := range pendingResp {
			l.Release()
		}
		pendingResp = pendingResp[:0]
	}
	serveLine := func(c int) bool {
		l := &lines[c]
		if !l.Pending() {
			// Spurious bit (full sweep raced the client's Set) or an
			// idle line on a full sweep.
			return false
		}
		q := l.Payload()
		q.res = runOp(shard, q)
		// Never past the batch capacity reserved above: no allocation.
		pendingResp = append(pendingResp, l)
		if len(pendingResp) >= sys.batch {
			flush()
		}
		return true
	}
	// The server is a dedicated thread by ffwd's design: it spins over its
	// client lines for the lifetime of the system, yields when idle, and
	// exits on Close.
	for pass := uint64(0); ; pass++ {
		served := 0
		closed := sys.closed.Load()
		if closed || pass&(serveScanEvery-1) == 0 {
			for c := range lines {
				if serveLine(c) {
					served++
				}
			}
		} else {
			for w := 0; w < bell.Words(); w++ {
				pending := bell.Collect(w)
				for pending != 0 {
					if serveLine(ring.PopBit(w, &pending)) {
						served++
					}
				}
			}
		}
		// End of a sweep: publish whatever is batched.
		flush()
		if served == 0 {
			if closed {
				return
			}
			runtime.Gosched()
		}
	}
}

// runOp executes a request, converting a panic into an error result rather
// than killing the server thread.
func runOp(shard any, q *request) (res Result) {
	defer func() {
		if rec := recover(); rec != nil {
			// Panic path only; the no-panic fast path stays allocation-free.
			res = Result{Err: fmt.Errorf("ffwd: panic in delegated op: %v", rec)}
		}
	}()
	return q.op(shard, q.key, &q.args)
}

// Client is a registered client handle. Methods must be called from a
// single goroutine at a time.
type Client struct {
	sys *System
	id  int
}

// Register adds a client.
func (sys *System) Register() (*Client, error) {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	// Checked under mu: a bare pre-lock check could interleave with Close
	// and hand out an id on a system whose servers are already exiting,
	// leaking the slot (the caller would never Unregister a handle it was
	// never given, but the id was already popped from freeIDs).
	if sys.closed.Load() {
		return nil, ErrClosed
	}
	var id int
	if n := len(sys.freeIDs); n > 0 {
		id = sys.freeIDs[n-1]
		sys.freeIDs = sys.freeIDs[:n-1]
	} else {
		if sys.nextClient >= sys.maxClients {
			return nil, fmt.Errorf("ffwd: too many clients (max %d)", sys.maxClients)
		}
		id = sys.nextClient
		sys.nextClient++
	}
	return &Client{sys: sys, id: id}, nil
}

// Unregister releases the client's id.
func (c *Client) Unregister() {
	c.sys.mu.Lock()
	c.sys.freeIDs = append(c.sys.freeIDs, c.id)
	c.sys.mu.Unlock()
}

// Call delegates op on key to the owning server and spins until the
// response arrives (ffwd clients busy-wait; §3.2 of the paper contrasts
// this with DPS's overlapped waiting).
func (c *Client) Call(key uint64, op Op, args Args) Result {
	return c.CallServer(c.sys.ServerFor(key), key, op, args)
}

// CallServer delegates to a specific server, for callers that shard keys
// themselves (e.g. one-server deployments where clients pre-traverse, as in
// the paper's linked-list setup).
func (c *Client) CallServer(s int, key uint64, op Op, args Args) Result {
	l := &c.sys.lines[s][c.id]
	q := l.Payload()
	q.op = op
	q.key = key
	q.args = args
	l.Publish()
	// Publish-then-set: a server that consumes the bit is guaranteed to
	// see the pending line (see ring.Doorbell).
	c.sys.bells[s].Set(c.id)
	// Busy-waiting is ffwd's published client protocol — the contrast with
	// DPS's serve-while-waiting is exactly what the Figure 3/6 benchmarks
	// measure — so the poll loop is justified, not fixed.
	for l.Pending() {
		runtime.Gosched()
	}
	res := q.res
	q.res = Result{} // the line is the client's again: the toggle cleared
	q.args.P = nil
	return res
}
