package wire

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
)

// Handler applies one decoded request burst, a burst toward this process
// whose entries each name their own partition. The wire server calls it
// sequentially per connection (preserving each sender link's order, the
// property read-your-writes rests on) and concurrently across
// connections, at most once per (src, seq): src is the sending link's
// identity (0 if the client never sent an ident frame) and seq the
// burst's sequence number, and the server answers a retransmission from
// its dedup window instead of calling Apply again. resp is a scratch
// slice to append into; the handler returns one RespOp per ReqOp, in
// order. The returned entries' Data may sub-slice handler-owned buffers —
// the server copies what its window keeps and encodes the response before
// the next Apply on that connection. The third argument is always -1: a
// frame no longer names one partition. It stays because the benchmark
// module's echo handler implements this signature.
type Handler interface {
	Apply(src uint64, seq uint32, _ int, req []ReqOp, resp []RespOp) []RespOp
}

// Server is the accept side of the wire tier: it owns a listener,
// leads every connection with a hello frame declaring which partitions
// this process serves, then loops read → decode → apply → respond, where
// apply is the Handler's, so a cross-process operation is served exactly
// like a cross-locality one once it clears the codec.
//
// The server also keeps a bounded per-link dedup window: each sender
// link names itself with a random 64-bit identity, each burst carries a
// monotonic sequence number, and a (link, seq) pair the server has
// already executed is answered from the cached responses instead of
// re-executed. That is what makes client-side retransmission safe for
// non-idempotent ops — a burst whose response frame was lost to a link
// failure is retried without applying its side effects twice. The
// window survives Stop/Rebind, so a listener restart ("peer restart"
// from the client's point of view) keeps retries exactly-once.
type Server struct {
	h          Handler
	partitions uint32
	owned      []uint32

	// mu guards the listener (nil while stopped), the live connections
	// and closed, which makes a stop final.
	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup

	// dmu guards the dedup windows, keyed by sender link identity; admit
	// is the one function that touches them (TestServerAddrWhileServing).
	dmu     sync.Mutex
	windows map[uint64]*seenWindow
	// worder is the window insertion order, for link-count eviction.
	worder []uint64
	// replays counts bursts answered from the window.
	replays atomic.Uint64
}

// Dedup window bounds. Window size trades memory (cached responses live
// until evicted) against the longest reorder a retransmission can see —
// a link retransmits at most its in-flight pipeline, so a few hundred
// bursts is generous. maxDedupLinks bounds distinct sender links
// remembered; a client restart mints a new link identity, so this is an
// LRU over client generations, not live connections.
const (
	dedupWindow   = 256
	maxDedupLinks = 256
)

// seenWindow is one sender link's dedup state: a bounded FIFO of
// executed bursts and their cached responses.
type seenWindow struct {
	entries map[uint32]*burstRecord
	order   []uint32
}

// burstRecord is one executed (or executing) burst. done is closed once
// resp is complete: a retransmission that arrives while the original is
// still executing waits for it rather than racing it.
type burstRecord struct {
	done chan struct{}
	resp []RespOp // deep copies; immutable once done closes
}

// NewServer wraps an accepted listener. owned are the global partition
// indices this process serves; partitions is the cluster's total.
func NewServer(ln net.Listener, partitions int, owned []int, h Handler) *Server {
	s := &Server{
		ln:         ln,
		h:          h,
		partitions: uint32(partitions),
		conns:      make(map[net.Conn]bool),
		windows:    make(map[uint64]*seenWindow),
	}
	for _, p := range owned {
		s.owned = append(s.owned, uint32(p))
	}
	return s
}

// Addr returns the listener's address (nil while stopped).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Replays returns how many retransmitted bursts the dedup window has
// answered without calling the handler.
func (s *Server) Replays() uint64 { return s.replays.Load() }

// Serve accepts connections until Stop or Close. It returns nil after
// either and the accept error otherwise; after Stop, Rebind and call it
// again.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("wire: server stopped; Rebind before Serve")
	}
	for {
		c, err := ln.Accept()
		s.mu.Lock()
		if s.ln != ln {
			s.mu.Unlock()
			if err == nil {
				c.Close()
			}
			return nil
		}
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.conns[c] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// Stop closes the listener, severs every connection and waits for the
// per-connection loops to exit, but keeps the handler and the dedup
// window, so a Rebind later resumes serving with retransmission dedup
// intact — the server side of a "peer restart" that loses no executed
// work. In-flight bursts on the client side move to their links' retry
// queues.
func (s *Server) Stop() error {
	s.mu.Lock()
	ln := s.ln
	s.ln = nil
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Rebind attaches a fresh listener after Stop. The caller runs Serve
// again.
func (s *Server) Rebind(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("wire: server closed")
	}
	if s.ln != nil {
		return errors.New("wire: server already serving; Stop first")
	}
	s.ln = ln
	return nil
}

// Close stops the server for good: Stop, and no Rebind after it.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.Stop()
}

// serveConn runs one connection: hello, then the read→apply→respond
// loop. Frames are applied strictly in arrival order; any protocol
// violation closes the connection (the client's deadline machinery
// covers the rest).
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	hello, err := AppendHello(nil, s.partitions, s.owned)
	if err != nil {
		return
	}
	if _, err := c.Write(hello); err != nil {
		return
	}
	var (
		fr   = newFrameReader(c)
		wbuf []byte
		resp []RespOp
		f    Frame
		src  uint64
	)
	for {
		if _, _, err = fr.next(&f); err != nil {
			return
		}
		switch f.Type {
		case FrameIdent:
			// The client names its link once, right after our hello; the
			// identity keys the dedup window.
			src = f.Ident
			continue
		case FramePing:
			// Liveness probe: answer in arrival order, echoing the seq.
			wbuf, err = AppendControl(wbuf[:0], FramePong, f.Seq)
			if err != nil {
				return
			}
			if _, err := c.Write(wbuf); err != nil {
				return
			}
			continue
		case FrameRequest:
		default:
			return
		}
		if len(f.Req) == 0 {
			return
		}
		resp = s.apply(src, &f, resp[:0])
		if len(resp) != len(f.Req) {
			return // handler contract violation; don't invent results
		}
		wbuf = wbuf[:0]
		wbuf, err = AppendResponse(wbuf, f.Seq, resp)
		if err != nil {
			return
		}
		if _, err := c.Write(wbuf); err != nil {
			return
		}
	}
}

// apply runs one request burst through the handler, or replays it. A
// burst the dedup window has seen (same sender link, same seq) is a
// retransmission: its cached responses are replayed without touching the
// handler. A retransmission racing the original execution (the client
// declared the link dead while the op was still running) waits for the
// original to finish and replays its responses — on the original's
// connection order, so per-link ordering holds either way. An anonymous
// link (src 0) bypasses the window.
func (s *Server) apply(src uint64, f *Frame, resp []RespOp) []RespOp {
	var rec *burstRecord
	if src != 0 {
		cached, mine := s.admit(src, f.Seq)
		if cached != nil {
			<-cached.done
			if len(cached.resp) == len(f.Req) {
				s.replays.Add(1)
				return append(resp, cached.resp...)
			}
			// Shape mismatch: not actually the same burst (seq reuse by a
			// colliding link identity). Fall through and execute.
		}
		rec = mine
	}
	resp = s.h.Apply(src, f.Seq, -1, f.Req, resp)
	if rec != nil {
		rec.resp = cloneResp(resp)
		close(rec.done)
	}
	return resp
}

// admit checks the dedup window for (src, seq). It returns the existing
// record if the burst was seen (the caller replays it), or a fresh
// record registered under the pair (the caller executes and completes
// it).
func (s *Server) admit(src uint64, seq uint32) (cached, mine *burstRecord) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	w := s.windows[src]
	if w == nil {
		if len(s.worder) >= maxDedupLinks {
			oldest := s.worder[0]
			s.worder = s.worder[1:]
			delete(s.windows, oldest)
		}
		w = &seenWindow{entries: make(map[uint32]*burstRecord)}
		s.windows[src] = w
		s.worder = append(s.worder, src)
	}
	if rec, ok := w.entries[seq]; ok {
		return rec, nil
	}
	rec := &burstRecord{done: make(chan struct{})}
	w.entries[seq] = rec
	w.order = append(w.order, seq)
	if len(w.order) > dedupWindow {
		evict := w.order[0]
		w.order = w.order[1:]
		delete(w.entries, evict)
	}
	return nil, rec
}

// cloneResp deep-copies a burst's responses for the dedup cache: the
// live responses sub-slice handler-owned buffers that later writes
// mutate, and the cache must replay the bytes as they were.
func cloneResp(src []RespOp) []RespOp {
	out := make([]RespOp, len(src))
	for i, r := range src {
		out[i] = r
		if r.HasData {
			out[i].Data = append([]byte(nil), r.Data...)
		}
	}
	return out
}
