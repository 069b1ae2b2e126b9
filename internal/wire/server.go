package wire

import (
	"net"
	"sync"
	"sync/atomic"
)

// Handler applies one decoded request burst. The wire server calls it
// sequentially per connection (preserving each sender link's order, the
// property read-your-writes rests on) and concurrently across
// connections. src is the sending link's identity (0 if the client
// never sent an ident frame) and seq the burst's sequence number —
// together they let the handler deduplicate retransmitted bursts. resp
// is a scratch slice to append into; the handler returns one RespOp per
// ReqOp, in order. The returned entries' Data may sub-slice
// handler-owned buffers — the server encodes the response before the
// next Apply on that connection.
type Handler interface {
	Apply(src uint64, seq uint32, part int, req []ReqOp, resp []RespOp) []RespOp
}

// Server is the accept side of the wire tier: it owns a listener,
// leads every connection with a hello frame declaring which partitions
// this process serves, then loops read → decode → Apply → respond. The
// decoded burst flows into the runtime's normal serve path via the
// Handler (internal/core.PeerServer), so a cross-process operation is
// served exactly like a cross-locality one once it clears the codec.
type Server struct {
	ln         net.Listener
	h          Handler
	partitions uint32
	owned      []uint32

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewServer wraps an accepted listener. owned are the global partition
// indices this process serves; partitions is the cluster's total.
func NewServer(ln net.Listener, partitions int, owned []int, h Handler) *Server {
	s := &Server{
		ln:         ln,
		h:          h,
		partitions: uint32(partitions),
		conns:      make(map[net.Conn]bool),
	}
	for _, p := range owned {
		s.owned = append(s.owned, uint32(p))
	}
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts connections until Close. It returns nil after Close and
// the accept error otherwise.
func (s *Server) Serve() error {
	//dps:spin-ok each iteration blocks in Accept; the closed poll only classifies the exit error
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// Close stops accepting, severs every connection and waits for the
// per-connection loops to exit. In-flight bursts on the client side
// resolve with ErrClosed through their read loops.
func (s *Server) Close() error {
	s.closed.Store(true)
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
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
			// identity keys the handler's dedup window.
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
		resp = s.h.Apply(src, f.Seq, int(f.Part), f.Req, resp[:0])
		if len(resp) != len(f.Req) {
			return // handler contract violation; don't invent results
		}
		wbuf = wbuf[:0]
		wbuf, err = AppendResponse(wbuf, f.Seq, f.Part, resp)
		if err != nil {
			return
		}
		if _, err := c.Write(wbuf); err != nil {
			return
		}
	}
}
