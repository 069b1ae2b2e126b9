package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dps/internal/chaos"
	"dps/internal/mcd"
	"dps/internal/obs"
)

// Defaults for Config's zero fields, and the front door's fixed limits.
const (
	DefaultMaxConns     = 4096
	DefaultSessions     = 8
	DefaultReadTimeout  = 5 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
	// DefaultMaxValue is the largest data block a set may carry; larger
	// blocks are swallowed and answered "SERVER_ERROR object too large for
	// cache".
	DefaultMaxValue = 1 << 20
	// version is the "version" command's reply.
	version = "dps-mcd/1.0"
	// readBufSize bounds a request line (bufio.ErrBufferFull past it) and
	// sizes the per-connection buffers.
	readBufSize  = 16 << 10
	writeBufSize = 16 << 10
)

// ErrServerClosed is returned by Serve after Shutdown closes the listener.
var ErrServerClosed = errors.New("server: closed")

// Config parameterizes a Server.
type Config struct {
	// Store is the cache being served. Required. The server borrows
	// Sessions sessions from it and returns them on Shutdown; closing the
	// store itself stays with the caller (after Shutdown).
	Store mcd.Store
	// MaxConns gates concurrently open connections; excess accepts are
	// answered "SERVER_ERROR too many connections" and closed.
	MaxConns int
	// Sessions is the store-session pool size: the number of pipelined
	// batches that can execute concurrently.
	Sessions int
	// ReadTimeout is the idle read deadline; a connection with no request
	// for this long is closed.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response flush.
	WriteTimeout time.Duration
	// Chaos injects operation delays on the dispatch path (tests only).
	Chaos *chaos.Injector
}

func (c *Config) setDefaults() {
	if c.MaxConns == 0 {
		c.MaxConns = DefaultMaxConns
	}
	if c.Sessions == 0 {
		c.Sessions = DefaultSessions
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = DefaultReadTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
}

// Server is the memcached-protocol front door over an mcd.Store.
type Server struct {
	cfg   Config
	stats obs.ServerStats
	// chaos mirrors cfg.Chaos onto the dispatch hot path.
	chaos *chaos.Injector

	ln    net.Listener
	pool  chan mcd.Session
	conns connSet
	wg    sync.WaitGroup // live connection goroutines
	// closed gates session borrowing during shutdown; draining flips the
	// connection loops into their exit-at-batch-boundary mode; drainGrace
	// is the shortened read deadline Shutdown imposes.
	closed     chan struct{}
	draining   atomic.Bool
	drainGrace time.Duration
	closeOnce  sync.Once
	serveErr   error
	serveDone  chan struct{}
}

// connSet tracks live connections so Shutdown can re-arm their deadlines.
type connSet struct {
	mu sync.Mutex
	m  map[*conn]struct{}
}

func (s *connSet) add(c *conn) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[*conn]struct{})
	}
	s.m[c] = struct{}{}
	s.mu.Unlock()
}

func (s *connSet) remove(c *conn) {
	s.mu.Lock()
	delete(s.m, c)
	s.mu.Unlock()
}

func (s *connSet) each(f func(*conn)) {
	s.mu.Lock()
	for c := range s.m {
		f(c)
	}
	s.mu.Unlock()
}

// New builds a server and borrows its session pool from the store (so a
// store whose thread budget cannot cover Sessions fails here, not on the
// first request).
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	cfg.setDefaults()
	s := &Server{
		cfg:       cfg,
		chaos:     cfg.Chaos,
		pool:      make(chan mcd.Session, cfg.Sessions),
		closed:    make(chan struct{}),
		serveDone: make(chan struct{}),
	}
	for i := 0; i < cfg.Sessions; i++ {
		sess, err := cfg.Store.Session()
		if err != nil {
			s.drainPool()
			return nil, fmt.Errorf("server: acquiring session %d/%d: %w", i+1, cfg.Sessions, err)
		}
		s.pool <- sess
	}
	return s, nil
}

// Listen starts accepting on addr (e.g. "127.0.0.1:11211"; ":0" picks a
// free port, see Addr). It returns once the listener is bound; Serve runs
// in the background until Shutdown.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() {
		s.serveErr = s.acceptLoop()
		close(s.serveDone)
	}()
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Stats exposes the live counter block (for tests and the stats command).
func (s *Server) Stats() *obs.ServerStats { return &s.stats }

// Metrics returns the store's runtime snapshot with the server's counters
// filled in — the one-stop observability view.
func (s *Server) Metrics() obs.Snapshot {
	snap := s.cfg.Store.Metrics()
	snap.Server = s.stats.Snapshot()
	return snap
}

func (s *Server) acceptLoop() error {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		if int(s.stats.CurrConns.Load()) >= s.cfg.MaxConns {
			s.stats.ConnsRejected.Add(1)
			_ = nc.SetWriteDeadline(time.Now().Add(time.Second))
			_, _ = nc.Write([]byte("SERVER_ERROR too many connections\r\n"))
			_ = nc.Close()
			continue
		}
		s.stats.ConnsAccepted.Add(1)
		c := s.newConn(nc)
		go c.serve()
	}
}

// newConn admits nc as a live connection; its serve loop undoes this on
// exit.
func (s *Server) newConn(nc net.Conn) *conn {
	s.stats.CurrConns.Add(1)
	cc := &countingConn{Conn: nc, stats: &s.stats}
	c := &conn{
		srv: s,
		nc:  nc,
		cc:  cc,
		br:  bufio.NewReaderSize(cc, readBufSize),
		bw:  bufio.NewWriterSize(cc, writeBufSize),
		cmd: newCommand(),
	}
	s.conns.add(c)
	s.wg.Add(1)
	return c
}

// Shutdown drains the server: stop accepting, give live connections a
// bounded grace to finish their pipelined batches (their read deadlines are
// re-armed to the grace so quiet clients cannot hold the drain hostage),
// then force-close stragglers and return the borrowed sessions. Responses
// for every command the server executed are flushed before the owning
// connection closes — the no-dropped-responses drain contract. The store
// itself is left open for the caller to close.
func (s *Server) Shutdown(timeout time.Duration) error {
	var err error
	s.closeOnce.Do(func() { err = s.shutdown(timeout) })
	return err
}

func (s *Server) shutdown(timeout time.Duration) error {
	// Grace for in-flight batches: most of the budget, holding back a
	// slice for the force-close sweep below.
	grace := timeout * 3 / 4
	if grace <= 0 {
		grace = time.Millisecond
	}
	s.drainGrace = grace
	s.draining.Store(true)
	if s.ln != nil {
		_ = s.ln.Close()
	}
	// Re-arm every live connection's read deadline: a connection parked in
	// a read otherwise sleeps out its full idle timeout.
	deadline := time.Now().Add(grace)
	s.conns.each(func(c *conn) { _ = c.nc.SetReadDeadline(deadline) })

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var leaked bool
	select {
	case <-done:
	case <-time.After(timeout):
		// Grace expired: sever the sockets mid-batch and give the loops a
		// moment to observe it.
		s.conns.each(func(c *conn) { _ = c.nc.Close() })
		select {
		case <-done:
		case <-time.After(time.Second):
			leaked = true
		}
	}
	close(s.closed)
	if s.ln != nil {
		<-s.serveDone
	}
	s.drainPool()
	if leaked {
		return fmt.Errorf("server: %d connections failed to exit", s.stats.CurrConns.Load())
	}
	return nil
}

// drainPool drains and closes the borrowed sessions.
func (s *Server) drainPool() {
	for {
		select {
		case sess := <-s.pool:
			sess.Drain()
			sess.Close()
		default:
			return
		}
	}
}

// countingConn counts payload bytes through the connection into the
// server's stats block.
type countingConn struct {
	net.Conn
	stats *obs.ServerStats
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.stats.BytesIn.Add(uint64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.stats.BytesOut.Add(uint64(n))
	}
	return n, err
}
