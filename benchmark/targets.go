package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dps/internal/core"
	"dps/internal/mcd"
	"dps/internal/obs"
	"dps/internal/server"
)

// numClients is the generator's width: goroutines and connections are capped
// at the machine's processor count (2 on the reference host).
func numClients() int { return runtime.NumCPU() }

// replyTimeout bounds one exchange; an op past it counts as failed.
const replyTimeout = 2 * time.Second

// tally is one client's counts over one window.
type tally struct {
	ops, gets, misses, failed, late int64
	lat                             []int64 // solo and paced phases: one latency per replied op
	broken                          bool    // the client's connection is unusable
}

// add folds o's counts into t; latencies stay with their own window.
func (t *tally) add(o *tally) {
	t.ops += o.ops
	t.gets += o.gets
	t.misses += o.misses
	t.failed += o.failed
	t.late += o.late
	t.broken = t.broken || o.broken
}

// sample records the latency of an exchanged op, counted from start. A failed
// op counts as slower than any percentile; a noreply set has no latency.
func (t *tally) sample(o *op, start int64) {
	switch {
	case o.done < 0:
		t.lat = append(t.lat, failedLatency)
	case o.done > 0:
		t.lat = append(t.lat, o.done-start)
	}
}

// client is one generator goroutine's door into the system under test.
// exchange sends ops, verifies every reply byte for byte and counts the
// outcome in t; with stamp set it records each op's completion time. A failed
// op gets done = -1.
type client interface {
	exchange(ops []op, t *tally, stamp bool)
	// populate stores every key congruent to part modulo of.
	populate(keys uint64, part, of int) error
	close()
}

// ---- in-process sessions (inproc-read, peer-mixed) ----

type sessionClient struct {
	s    mcd.Session
	vals *values
	val  []byte
}

func (c *sessionClient) exchange(ops []op, t *tally, stamp bool) {
	for i := range ops {
		o := &ops[i]
		ok := true
		if o.kind == opGet {
			t.gets++
			v, hit, err := c.s.Get(o.key)
			switch {
			case err != nil:
				ok = false
			case !hit:
				t.misses++
			default:
				ok = c.vals.check(v, o.key)
			}
		} else {
			ok = c.s.Set(o.key, c.vals.fill(c.val, o.key)) == nil
		}
		if stamp {
			o.done = now()
		}
		if !ok {
			t.failed++
			o.done = -1
		}
	}
}

// populateChunk is how many asynchronous sets are in flight before a Drain:
// SetAsync may keep the value slice until it is applied, so each in-flight set
// needs its own buffer.
const populateChunk = 512

func (c *sessionClient) populate(keys uint64, part, of int) error {
	bufs := make([]byte, populateChunk*c.vals.size)
	n := 0
	for k := uint64(part) + 1; k <= keys; k += uint64(of) {
		c.s.SetAsync(k, c.vals.fill(bufs[n*c.vals.size:], k))
		if n++; n == populateChunk {
			c.s.Drain()
			n = 0
		}
	}
	c.s.Drain()
	return nil
}

func (c *sessionClient) close() { c.s.Close() }

// ---- memcached text protocol over loopback TCP (frontdoor-*) ----

type socketClient struct {
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	vals *values
	val  []byte
	line []byte
	// reqs records one `request` span per sampleEvery replied requests while
	// tracing is on; nil on untraced runs.
	reqs  *spanBuf
	on    func() bool
	nreqs uint64
	want  []byte
}

func dialSocket(addr string, vals *values) (*socketClient, error) {
	nc, err := net.DialTimeout("tcp", addr, replyTimeout)
	if err != nil {
		return nil, err
	}
	return &socketClient{
		nc:   nc,
		br:   bufio.NewReaderSize(nc, 64<<10),
		bw:   bufio.NewWriterSize(nc, 64<<10),
		vals: vals,
		val:  make([]byte, vals.size),
	}, nil
}

func appendKey(dst []byte, key uint64) []byte {
	return strconv.AppendUint(append(dst, 'k'), key, 10)
}

// protocolHash is the uint64 the front door stores a protocol key under
// (FNV-1a, as internal/server hashes it): the key a session span carries.
func protocolHash(key uint64) uint64 {
	var name [24]byte
	h := uint64(14695981039346656037)
	for _, c := range appendKey(name[:0], key) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func (c *socketClient) writeRequest(o *op) {
	l := c.line[:0]
	if o.kind == opGet {
		l = append(l, "get "...)
		l = appendKey(l, o.key)
	} else {
		l = append(l, "set "...)
		l = appendKey(l, o.key)
		l = append(l, " 0 0 "...)
		l = strconv.AppendUint(l, uint64(c.vals.size), 10)
		if o.kind == opSetNoreply {
			l = append(l, " noreply"...)
		}
	}
	l = append(l, '\r', '\n')
	c.bw.Write(l)
	if o.kind != opGet {
		c.bw.Write(c.vals.fill(c.val, o.key))
		c.bw.WriteString("\r\n")
	}
	c.line = l[:0]
}

var (
	replyEnd    = []byte("END\r\n")
	replyStored = []byte("STORED\r\n")
)

// readReply consumes one request's reply. ok is false for an error line or
// wrong bytes; err is non-nil when the stream itself is lost.
func (c *socketClient) readReply(o *op, t *tally) (ok bool, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	if o.kind == opSet {
		return bytes.Equal(line, replyStored), nil
	}
	t.gets++
	if bytes.Equal(line, replyEnd) {
		t.misses++
		return true, nil
	}
	// "VALUE <key> 0 <bytes>\r\n<data>\r\nEND\r\n"
	want := append(c.want[:0], "VALUE "...)
	want = appendKey(want, o.key)
	want = append(want, " 0 "...)
	want = strconv.AppendUint(want, uint64(c.vals.size), 10)
	want = append(want, '\r', '\n')
	c.want = want[:0]
	if !bytes.Equal(line, want) {
		if bytes.HasPrefix(line, []byte("VALUE ")) {
			return false, fmt.Errorf("unexpected reply %q to get k%d", bytes.TrimSpace(line), o.key)
		}
		return false, nil // an ERROR line: the stream is still aligned
	}
	data, err := c.br.Peek(c.vals.size + 2)
	if err != nil {
		return false, err
	}
	ok = c.vals.check(data[:c.vals.size], o.key)
	if _, err := c.br.Discard(c.vals.size + 2); err != nil {
		return false, err
	}
	line, err = c.br.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	if !bytes.Equal(line, replyEnd) {
		return false, fmt.Errorf("missing END after VALUE, got %q", bytes.TrimSpace(line))
	}
	return ok, nil
}

func (c *socketClient) exchange(ops []op, t *tally, stamp bool) {
	for i := range ops {
		c.writeRequest(&ops[i])
	}
	tracing := c.reqs != nil && c.on()
	var sent int64
	if tracing {
		sent = now()
	}
	err := c.bw.Flush()
	if err == nil {
		err = c.nc.SetReadDeadline(time.Now().Add(replyTimeout))
	}
	for i := range ops {
		o := &ops[i]
		if o.kind == opSetNoreply && err == nil {
			continue
		}
		ok := false
		if err == nil {
			ok, err = c.readReply(o, t)
		}
		if stamp || tracing {
			o.done = now()
		}
		if !ok {
			t.failed++
			o.done = -1
			continue
		}
		if tracing {
			if c.nreqs++; c.nreqs%sampleEvery == 0 {
				c.reqs.add(protocolHash(o.key), sent, o.done)
			}
		}
	}
	if err != nil {
		t.broken = true
	}
}

func (c *socketClient) populate(keys uint64, part, of int) error {
	o := op{kind: opSetNoreply}
	for k := uint64(part) + 1; k <= keys; k += uint64(of) {
		o.key = k
		c.writeRequest(&o)
	}
	// One replied get closes the pipeline: when it answers, every noreply set
	// before it has been consumed.
	o = op{kind: opGet, key: uint64(part) + 1}
	c.writeRequest(&o)
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if err := c.nc.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return err
	}
	var t tally
	if ok, err := c.readReply(&o, &t); err != nil || !ok {
		return fmt.Errorf("populate: closing get failed (ok=%v): %v", ok, err)
	}
	return nil
}

func (c *socketClient) close() { c.nc.Close() }

// ---- the system under test ----

// system is one workload's store(s), optional front door and dialed clients.
type system struct {
	clients []client
	srv     *server.Server
	stores  []mcd.Store  // closed in order, after the server
	traced  *tracedStore // nil on untraced runs
	reqBufs []*spanBuf   // the socket clients' request spans
	// metrics is the observability snapshot of the store the clients talk to,
	// with the front door's counters when there is one.
	metrics func() obs.Snapshot
}

// setup opens the workload's system, dials its clients and stores every key,
// so the measured phases run against a warm, fully populated store. spanCap is
// the per-goroutine span buffer size; 0 sets up without tracing.
func setup(w *workload, vals *values, spanCap int) (_ *system, err error) {
	sys := &system{}
	defer func() {
		if err != nil {
			_ = sys.teardown() // the set-up error is the one worth reporting
		}
	}()
	open := func(cfg mcd.Config) (mcd.Store, error) {
		cfg.Partitions = partitions
		cfg.MemLimit = w.memLimit
		st, err := mcd.Open("dps", cfg)
		if err == nil {
			sys.stores = append(sys.stores, st)
		}
		return st, err
	}
	// trace wraps the store the clients (or the front door) will use.
	trace := func(st mcd.Store, every int) mcd.Store {
		if spanCap == 0 {
			return st
		}
		sys.traced = newTracedStore(st, every, spanCap)
		return sys.traced
	}

	n := numClients()
	var front mcd.Store
	switch w.entry {
	case entryInproc:
		st, err := open(mcd.Config{})
		if err != nil {
			return nil, err
		}
		front = trace(st, sampleEvery)
		sys.metrics = st.Metrics
	case entryPeer:
		// As internal/mcd/peer_test.go: the serving store owns every partition
		// and listens; the dialing store keeps 0,1 and delegates 2,3 over TCP.
		srv, err := open(mcd.Config{PeerListen: "127.0.0.1:0"})
		if err != nil {
			return nil, err
		}
		cli, err := open(mcd.Config{Peers: []core.Peer{{
			Addr: srv.(mcd.PeerListener).PeerAddr(), Parts: []int{2, 3}, Timeout: replyTimeout,
		}}})
		if err != nil {
			return nil, err
		}
		// Close the dialing store first: its links drain into a live peer.
		sys.stores[0], sys.stores[1] = cli, srv
		front = trace(cli, sampleEvery)
		sys.metrics = cli.Metrics
	case entryFrontdoor:
		// OpTimeout as cmd/mcdbench -net configures its front door.
		st, err := open(mcd.Config{OpTimeout: 5 * time.Second})
		if err != nil {
			return nil, err
		}
		sys.srv, err = server.New(server.Config{Store: trace(st, 1)})
		if err != nil {
			return nil, err
		}
		if err := sys.srv.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		sys.metrics = sys.srv.Metrics
	}

	for g := 0; g < n; g++ {
		if w.entry == entryFrontdoor {
			c, err := dialSocket(sys.srv.Addr().String(), vals)
			if err != nil {
				return nil, err
			}
			if sys.traced != nil {
				c.reqs, c.on = newSpanBuf(spanCap), sys.traced.on.Load
				sys.reqBufs = append(sys.reqBufs, c.reqs)
			}
			sys.clients = append(sys.clients, c)
			continue
		}
		s, err := front.Session()
		if err != nil {
			return nil, err
		}
		sys.clients = append(sys.clients, &sessionClient{s: s, vals: vals, val: make([]byte, vals.size)})
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for g, c := range sys.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = c.populate(w.keys, g, n)
		}()
	}
	wg.Wait()
	return sys, errors.Join(errs...)
}

// teardown closes clients, then the front door (Shutdown), then the stores.
func (sys *system) teardown() error {
	for _, c := range sys.clients {
		c.close()
	}
	var errs []error
	if sys.srv != nil {
		errs = append(errs, sys.srv.Shutdown(5*time.Second))
	}
	for _, st := range sys.stores {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}
