package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strconv"
	"time"

	"dps/internal/core"
	"dps/internal/mcd"
	"dps/internal/obs"
)

// Canonical response lines.
var (
	respStored      = []byte("STORED\r\n")
	respNotStored   = []byte("NOT_STORED\r\n")
	respDeleted     = []byte("DELETED\r\n")
	respNotFound    = []byte("NOT_FOUND\r\n")
	respEnd         = []byte("END\r\n")
	respError       = []byte("ERROR\r\n")
	respCRLF        = []byte("\r\n")
	respBadFormat   = []byte("CLIENT_ERROR bad command line format\r\n")
	respBadKey      = []byte("CLIENT_ERROR bad key\r\n")
	respTooManyKeys = []byte("CLIENT_ERROR too many keys\r\n")
	respBadChunk    = []byte("CLIENT_ERROR bad data chunk\r\n")
	respTooLarge    = []byte("SERVER_ERROR object too large for cache\r\n")
	respBackendBusy = []byte("SERVER_ERROR backend timeout\r\n")
	respPeerDown    = []byte("SERVER_ERROR peer down\r\n")
	respLineTooLong = []byte("CLIENT_ERROR line too long\r\n")
)

// errConnClose signals the serve loop to close the connection without
// logging (quit, store shutdown, unrecoverable protocol desync).
var errConnClose = errors.New("server: close connection")

// conn serves one accepted connection. The loop alternates between reading
// a pipelined batch — every command already buffered — and a batch
// boundary, where pending asynchronous writes are drained, the borrowed
// session goes back to the pool, and buffered responses flush in one
// syscall. The session is only held while commands are in hand, so
// thousands of mostly-idle connections share a handful of store sessions.
//
// Within a batch, consecutive get/gets keys queue into a wave instead of
// executing one by one: closeWave issues them all through the session's
// mcd.Waver, awaits them, and renders their replies in request order. Any
// other command, a malformed line, a full queue and the batch boundary close
// the wave first, so nothing is ever written ahead of a queued get's reply.
type conn struct {
	srv *Server
	nc  net.Conn
	cc  *countingConn
	br  *bufio.Reader
	bw  *bufio.Writer
	cmd *command
	// sess is the pool session held for the current batch (nil between
	// batches); ops counts the commands it has executed this batch. waver is
	// sess's wave interface, nil when the variant executes gets inline —
	// those sessions are served key by key.
	sess  mcd.Session
	waver mcd.Waver
	ops   uint64
	// The open wave: wave[i] is the store op of queued key wgets[i], whose
	// bytes were copied into wkeys (the read buffer they were parsed from is
	// refilled before the wave closes).
	wave  []mcd.WaveOp
	wgets []waveGet
	wkeys []byte
	// scratch assembles entry buffers and response headers.
	scratch []byte
}

// waveGet is the protocol side of one queued get key.
type waveGet struct {
	off, end int  // the key is wkeys[off:end]
	withCAS  bool // gets: the VALUE line carries the cas unique
	last     bool // last key of its command: END follows its reply
}

func (c *conn) serve() {
	defer func() {
		c.releaseSession()
		_ = c.nc.Close()
		c.srv.stats.CurrConns.Add(-1)
		c.srv.conns.remove(c)
		c.srv.wg.Done()
	}()
	for {
		// Only a read that finds the buffer empty is sure to wait on the
		// socket, so only that one re-arms the idle deadline; a command whose
		// tail is still in flight stays bounded by the deadline armed here.
		if c.br.Buffered() == 0 {
			if err := c.armReadDeadline(); err != nil {
				return
			}
		}
		line, err := c.readLine()
		if err != nil {
			c.handleReadError(err)
			return
		}
		if len(line) == 0 {
			continue // stray empty line between commands
		}
		if err := c.dispatch(line); err != nil {
			// Protocol desync or store shutdown: flush what the client
			// already earned, then close.
			c.endBatch()
			return
		}
		if c.br.Buffered() == 0 {
			if !c.endBatch() {
				return
			}
			if c.srv.draining.Load() {
				return
			}
		}
	}
}

// armReadDeadline sets the idle read deadline — shortened by Shutdown so
// draining connections stop waiting for quiet clients.
func (c *conn) armReadDeadline() error {
	d := c.srv.cfg.ReadTimeout
	if c.srv.draining.Load() {
		d = c.srv.drainGrace
	}
	return c.nc.SetReadDeadline(time.Now().Add(d))
}

// handleReadError ends the connection's last batch. EOF and deadline expiry
// are normal connection lifecycle and anything else is a peer reset, but the
// read may have failed mid-batch — a request line split across reads, after
// complete commands whose replies are still buffered — so the batch ends
// here either way and the client gets every reply it earned. A line longer
// than the read buffer is answered before that.
func (c *conn) handleReadError(err error) {
	if errors.Is(err, bufio.ErrBufferFull) && c.closeWave() == nil {
		c.srv.stats.ProtocolErrors.Add(1)
		_, _ = c.bw.Write(respLineTooLong)
	}
	c.endBatch()
}

// readLine reads one CRLF-terminated line, stripping the terminator. A line
// longer than the read buffer is a protocol violation (bufio.ErrBufferFull).
func (c *conn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	n := len(line) - 1
	if n > 0 && line[n-1] == '\r' {
		n--
	}
	return line[:n], nil
}

// session returns the batch's store session, borrowing from the pool on
// first use. Borrowing blocks when every session is busy — back-pressure
// from the store outward to the sockets.
func (c *conn) session() (mcd.Session, error) {
	if c.sess == nil {
		select {
		case s := <-c.srv.pool:
			c.sess = s
			c.ops = 0
			if c.waver, _ = s.(mcd.Waver); c.waver != nil && c.wave == nil {
				c.wave = make([]mcd.WaveOp, 0, mcd.MaxWave)
				c.wgets = make([]waveGet, 0, mcd.MaxWave)
			}
		case <-c.srv.closed:
			return nil, errConnClose
		}
	}
	return c.sess, nil
}

// releaseSession drains pending asynchronous writes and returns the session
// to the pool. The drain is what makes a batch's noreply sets visible to
// every later borrower — cross-connection read-your-writes at batch
// granularity. A pooled session is between calls, so on the dps variants it
// serves nothing and an operation toward its locality runs on its sender.
func (c *conn) releaseSession() {
	if c.sess == nil {
		return
	}
	c.sess.Drain()
	c.srv.stats.Batches.Add(1)
	c.srv.stats.BatchedOps.Add(c.ops)
	c.srv.pool <- c.sess
	c.sess, c.waver = nil, nil
	c.ops = 0
}

// endBatch closes a pipelined batch: answer the open wave, release the
// session, flush buffered responses under the write deadline. Returns false
// when the store is shutting down or the flush fails (peer gone) and the
// connection should close.
func (c *conn) endBatch() bool {
	storeUp := c.closeWave() == nil
	c.releaseSession()
	if c.bw.Buffered() == 0 {
		return storeUp
	}
	if c.srv.cfg.WriteTimeout > 0 {
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	}
	return c.bw.Flush() == nil && storeUp
}

// dispatch parses and executes one command line. A non-nil return closes
// the connection; protocol errors are answered in-band and return nil.
func (c *conn) dispatch(line []byte) error {
	if c.srv.chaos != nil {
		c.srv.chaos.BeforeOp()
	}
	perr := parseCommand(line, c.cmd)
	if perr == nil && (c.cmd.op == opGet || c.cmd.op == opGets) {
		return c.doGet(c.cmd.op == opGets)
	}
	// Everything but a well-formed get is a barrier: the queued gets are
	// answered before this command executes or its error line is written.
	if err := c.closeWave(); err != nil {
		return err
	}
	if perr != nil {
		return c.commandError(perr)
	}
	switch c.cmd.op {
	case opSet, opAdd:
		return c.doStore()
	case opDelete:
		return c.doDelete()
	case opStats:
		c.srv.stats.CmdOther.Add(1)
		return c.doStats()
	case opVersion:
		c.srv.stats.CmdOther.Add(1)
		_, _ = c.bw.WriteString("VERSION " + version + "\r\n")
		return nil
	case opQuit:
		c.srv.stats.CmdOther.Add(1)
		return errConnClose
	default:
		return c.commandError(errUnknownCommand)
	}
}

// commandError answers a malformed command. The stream stays aligned (the
// offending line was fully consumed), so the connection survives.
func (c *conn) commandError(err error) error {
	c.srv.stats.ProtocolErrors.Add(1)
	switch {
	case errors.Is(err, errUnknownCommand):
		_, _ = c.bw.Write(respError)
	case errors.Is(err, errBadKey):
		_, _ = c.bw.Write(respBadKey)
	case errors.Is(err, errTooManyKeys):
		_, _ = c.bw.Write(respTooManyKeys)
	default:
		_, _ = c.bw.Write(respBadFormat)
	}
	return nil
}

// storeError answers a failed store operation: delegation timeouts are the
// back-pressure signal (the client may retry), a down peer is reported as
// its own degradation class (the key range is unreachable, the client may
// fail over), shutdown closes.
func (c *conn) storeError(err error) error {
	if errors.Is(err, core.ErrClosed) {
		return errConnClose
	}
	if errors.Is(err, core.ErrPeerDown) {
		c.srv.stats.PeerDownErrors.Add(1)
		_, _ = c.bw.Write(respPeerDown)
		return nil
	}
	c.srv.stats.ProtocolErrors.Add(1)
	if errors.Is(err, core.ErrTimeout) {
		_, _ = c.bw.Write(respBackendBusy)
		return nil
	}
	_, _ = c.bw.WriteString("SERVER_ERROR ")
	_, _ = c.bw.WriteString(err.Error())
	_, _ = c.bw.Write(respCRLF)
	return nil
}

// doGet serves get/gets: one VALUE block per present key, END last. Keys
// whose stored entry embeds a different protocol key (FNV collision) are
// reported as misses rather than leaking a foreign value. On a session that
// can run waves the keys are only queued here; closeWave answers them.
func (c *conn) doGet(withCAS bool) error {
	sess, err := c.session()
	if err != nil {
		return err
	}
	keys := c.cmd.keys
	if c.waver != nil {
		for i, key := range keys {
			if len(c.wave) == cap(c.wave) {
				if err := c.closeWave(); err != nil {
					return err
				}
			}
			off := len(c.wkeys)
			c.wkeys = append(c.wkeys, key...)
			c.wave = append(c.wave, mcd.WaveOp{Key: hashKey(key)})
			c.wgets = append(c.wgets, waveGet{off: off, end: len(c.wkeys), withCAS: withCAS, last: i == len(keys)-1})
		}
		return nil
	}
	var n getCounts
	for _, key := range keys {
		var o mcd.WaveOp
		o.Val, o.OK, o.Err = sess.Get(hashKey(key))
		if err := c.writeGet(key, withCAS, &o, &n); err != nil {
			return err
		}
	}
	c.countGets(n)
	_, _ = c.bw.Write(respEnd)
	return nil
}

// closeWave answers the queued gets: one Wave call puts them all in flight,
// then the replies are rendered in request order — a failed get's error line
// in its key's place, like the key-by-key path. Returns errConnClose when the
// store shut down under the wave. No-op without an open wave.
func (c *conn) closeWave() error {
	if len(c.wave) == 0 {
		return nil
	}
	c.waver.Wave(c.wave)
	var n getCounts
	var closed error
	for i := range c.wave {
		g := c.wgets[i]
		if closed = c.writeGet(c.wkeys[g.off:g.end], g.withCAS, &c.wave[i], &n); closed != nil {
			break
		}
		if g.last {
			_, _ = c.bw.Write(respEnd)
		}
	}
	c.countGets(n)
	clear(c.wave) // the ops pin their value bytes
	c.wave, c.wgets, c.wkeys = c.wave[:0], c.wgets[:0], c.wkeys[:0]
	return closed
}

// getCounts tallies rendered get keys so the shared counters take one add
// per command or wave, not one per key.
type getCounts struct{ keys, hits, misses uint64 }

// writeGet renders one looked-up key and tallies it: its VALUE block on a
// hit, nothing on a miss, the store's error line on a failed lookup
// (returning errConnClose when that failure is shutdown).
func (c *conn) writeGet(key []byte, withCAS bool, o *mcd.WaveOp, n *getCounts) error {
	n.keys++
	if o.Err != nil {
		return c.storeError(o.Err)
	}
	flags, storedKey, data, valid := decodeEntry(o.Val)
	if !o.OK || !valid || !bytesEqual(storedKey, key) {
		n.misses++
		return nil
	}
	n.hits++
	c.writeValue(key, flags, data, withCAS, o.Val)
	return nil
}

func (c *conn) countGets(n getCounts) {
	c.ops += n.keys
	c.srv.stats.CmdGet.Add(n.keys)
	if n.hits > 0 {
		c.srv.stats.GetHits.Add(n.hits)
	}
	if n.misses > 0 {
		c.srv.stats.GetMisses.Add(n.misses)
	}
}

// writeValue emits one "VALUE <key> <flags> <bytes> [<cas>]\r\n<data>\r\n"
// block, assembling the header in the connection's scratch buffer. The cas
// unique hashes the whole stored entry, so only gets pays for it.
func (c *conn) writeValue(key []byte, flags uint32, data []byte, withCAS bool, entry []byte) {
	h := append(c.scratch[:0], "VALUE "...)
	h = append(h, key...)
	h = append(h, ' ')
	h = strconv.AppendUint(h, uint64(flags), 10)
	h = append(h, ' ')
	h = strconv.AppendUint(h, uint64(len(data)), 10)
	if withCAS {
		h = append(h, ' ')
		h = strconv.AppendUint(h, entryCAS(entry), 10)
	}
	h = append(h, '\r', '\n')
	c.scratch = h[:0]
	_, _ = c.bw.Write(h)
	_, _ = c.bw.Write(data)
	_, _ = c.bw.Write(respCRLF)
}

// doStore serves set/add: read the data block into a fresh entry buffer
// (the buffer outlives the command — asynchronous delegation applies it
// later — so it cannot be pooled), then store through the session. noreply
// sets take the asynchronous burst path; replied sets are synchronous so
// STORED is truthful.
func (c *conn) doStore() error {
	key := c.cmd.keys[0]
	c.srv.stats.CmdSet.Add(1)
	if c.cmd.bytes > DefaultMaxValue {
		return c.discardOversized()
	}
	// key aliases the read buffer, which reading the data block may refill
	// and slide: hash it now, and from here on use the copy inside entry.
	hk := hashKey(key)
	entry := make([]byte, entrySize(len(key), c.cmd.bytes))
	off := putEntryHeader(entry, c.cmd.flags, key)
	key = entry[entryHeaderLen:off]
	if _, err := io.ReadFull(c.br, entry[off:]); err != nil {
		return errConnClose
	}
	var crlf [2]byte
	if _, err := io.ReadFull(c.br, crlf[:]); err != nil {
		return errConnClose
	}
	if crlf[0] != '\r' || crlf[1] != '\n' {
		// The stream is misaligned past recovery: answer and close.
		c.srv.stats.ProtocolErrors.Add(1)
		_, _ = c.bw.Write(respBadChunk)
		return errConnClose
	}
	sess, err := c.session()
	if err != nil {
		return err
	}
	c.ops++
	if c.cmd.op == opAdd {
		// add stores only when absent. The check and the store are two
		// delegations, so concurrent adds of one key can both report
		// STORED (last write wins) — acceptable for a cache, documented
		// here rather than hidden.
		prev, ok, err := sess.Get(hk)
		if err != nil {
			return c.storeError(err)
		}
		if _, storedKey, _, valid := decodeEntry(prev); ok && valid && bytesEqual(storedKey, key) {
			if !c.cmd.noreply {
				_, _ = c.bw.Write(respNotStored)
			}
			return nil
		}
	}
	if c.cmd.noreply {
		sess.SetAsync(hk, entry)
		return nil
	}
	if err := sess.Set(hk, entry); err != nil {
		return c.storeError(err)
	}
	_, _ = c.bw.Write(respStored)
	return nil
}

// discardOversized swallows an oversized data block (keeping the stream
// aligned) and answers SERVER_ERROR, as memcached does.
func (c *conn) discardOversized() error {
	c.srv.stats.ProtocolErrors.Add(1)
	if _, err := io.CopyN(io.Discard, c.br, int64(c.cmd.bytes)+2); err != nil {
		return errConnClose
	}
	if !c.cmd.noreply {
		_, _ = c.bw.Write(respTooLarge)
	}
	return nil
}

// doDelete serves delete, with the same collision guard as doGet: a stored
// entry under the same uint64 key but a different protocol key is left
// alone and reported NOT_FOUND.
func (c *conn) doDelete() error {
	key := c.cmd.keys[0]
	c.srv.stats.CmdDelete.Add(1)
	sess, err := c.session()
	if err != nil {
		return err
	}
	c.ops++
	hk := hashKey(key)
	entry, ok, err := sess.Get(hk)
	if err != nil {
		return c.storeError(err)
	}
	_, storedKey, _, valid := decodeEntry(entry)
	if !ok || !valid || !bytesEqual(storedKey, key) {
		if !c.cmd.noreply {
			_, _ = c.bw.Write(respNotFound)
		}
		return nil
	}
	if _, err := sess.Delete(hk); err != nil {
		return c.storeError(err)
	}
	if !c.cmd.noreply {
		_, _ = c.bw.Write(respDeleted)
	}
	return nil
}

// doStats emits the server's counter block in the protocol's STAT format.
func (c *conn) doStats() error {
	m := c.srv.stats.Snapshot()
	c.statLine("curr_connections", uint64(m.CurrConns))
	c.statLine("total_connections", m.ConnsAccepted)
	c.statLine("rejected_connections", m.ConnsRejected)
	c.statLine("cmd_get", m.CmdGet)
	c.statLine("cmd_set", m.CmdSet)
	c.statLine("cmd_delete", m.CmdDelete)
	c.statLine("get_hits", m.GetHits)
	c.statLine("get_misses", m.GetMisses)
	c.statLine("protocol_errors", m.ProtocolErrors)
	c.statLine("peer_down_errors", m.PeerDownErrors)
	c.statLine("bytes_read", m.BytesIn)
	c.statLine("bytes_written", m.BytesOut)
	c.statLine("batches", m.Batches)
	c.statLine("batched_ops", m.BatchedOps)
	c.statLine("curr_items", uint64(c.srv.cfg.Store.Len()))
	for _, pm := range c.srv.cfg.Store.Metrics().Peers {
		c.peerStatLines(pm)
	}
	_, _ = c.bw.Write(respEnd)
	return nil
}

// peerStatLines emits one STAT block per configured peer link (prefix
// peer_<idx>_) so `stats` exposes the wire tier's health alongside the
// front door's counters.
func (c *conn) peerStatLines(pm obs.PeerMetrics) {
	p := "peer_" + strconv.Itoa(pm.Peer) + "_"
	c.statLine(p+"ops", pm.Ops)
	c.statLine(p+"timeouts", pm.Timeouts)
	c.statLine(p+"failed", pm.Failed)
	c.statLine(p+"reconnects", pm.Reconnects)
	c.statLine(p+"retries", pm.Retries)
	c.statLine(p+"heartbeats_sent", pm.HeartbeatsSent)
	c.statLine(p+"heartbeats_missed", pm.HeartbeatsMissed)
	c.statLine(p+"pending", uint64(pm.Pending))
}

func (c *conn) statLine(name string, v uint64) {
	h := append(c.scratch[:0], "STAT "...)
	h = append(h, name...)
	h = append(h, ' ')
	h = strconv.AppendUint(h, v, 10)
	h = append(h, '\r', '\n')
	c.scratch = h[:0]
	_, _ = c.bw.Write(h)
}
