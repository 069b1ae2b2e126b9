package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dps/internal/chaos"
	"dps/internal/mcd"
)

// newTestServer starts a server over the named variant on a loopback port.
func newTestServer(t *testing.T, variant string, cfg Config) (*Server, mcd.Store) {
	t.Helper()
	store, err := mcd.Open(variant, mcd.Config{
		Partitions: 2,
		MemLimit:   8 << 20,
		MaxThreads: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return serveStore(t, store, cfg), store
}

// serveStore starts a server over store on a loopback port. The test's
// cleanup shuts the server down and closes the store — after the connections
// dialed later have closed, so the drain never waits out an idle client.
func serveStore(t *testing.T, store mcd.Store, cfg Config) *Server {
	t.Helper()
	cfg.Store = store
	if cfg.Sessions == 0 {
		cfg.Sessions = 2
	}
	srv, err := New(cfg)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		store.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = srv.Shutdown(5 * time.Second)
		_ = store.Close()
	})
	return srv
}

func dial(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return nc
}

// roundTrip writes req and reads exactly len(want) response bytes.
func roundTrip(t *testing.T, nc net.Conn, req, want string) {
	t.Helper()
	if _, err := io.WriteString(nc, req); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(nc, got); err != nil {
		t.Fatalf("reading response to %q: %v (got %q so far)", req, err, got)
	}
	if string(got) != want {
		t.Fatalf("request %q:\n got %q\nwant %q", req, got, want)
	}
}

// TestProtocolGolden drives the full command set byte-for-byte on every
// variant behind mcd.Open.
func TestProtocolGolden(t *testing.T) {
	for _, variant := range mcd.Variants() {
		t.Run(variant, func(t *testing.T) {
			srv, _ := newTestServer(t, variant, Config{})
			nc := dial(t, srv)

			roundTrip(t, nc, "set greeting 42 0 5\r\nhello\r\n", "STORED\r\n")
			roundTrip(t, nc, "get greeting\r\n", "VALUE greeting 42 5\r\nhello\r\nEND\r\n")
			roundTrip(t, nc, "get missing\r\n", "END\r\n")
			roundTrip(t, nc, "get greeting missing greeting\r\n",
				"VALUE greeting 42 5\r\nhello\r\nVALUE greeting 42 5\r\nhello\r\nEND\r\n")
			roundTrip(t, nc, "add greeting 0 0 3\r\nbye\r\n", "NOT_STORED\r\n")
			roundTrip(t, nc, "add fresh 7 0 3\r\nnew\r\n", "STORED\r\n")
			roundTrip(t, nc, "get fresh\r\n", "VALUE fresh 7 3\r\nnew\r\nEND\r\n")
			roundTrip(t, nc, "delete fresh\r\n", "DELETED\r\n")
			roundTrip(t, nc, "delete fresh\r\n", "NOT_FOUND\r\n")
			roundTrip(t, nc, "set greeting 42 0 6\r\nhello2\r\n", "STORED\r\n")
			roundTrip(t, nc, "get greeting\r\n", "VALUE greeting 42 6\r\nhello2\r\nEND\r\n")
			roundTrip(t, nc, "bogus command\r\n", "ERROR\r\n")
			roundTrip(t, nc, "set k x y z\r\n", "CLIENT_ERROR bad command line format\r\n")
			roundTrip(t, nc, "version\r\n", "VERSION dps-mcd/1.0\r\n")
		})
	}
}

// TestGetsCAS checks the cas unique: stable across reads of one value,
// different after a rewrite.
func TestGetsCAS(t *testing.T) {
	srv, _ := newTestServer(t, "stock", Config{})
	nc := dial(t, srv)
	br := bufio.NewReader(nc)

	casOf := func() string {
		if _, err := io.WriteString(nc, "gets k\r\n"); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		fields := strings.Fields(line)
		if len(fields) != 5 || fields[0] != "VALUE" {
			t.Fatalf("gets reply %q", line)
		}
		if _, err := br.Discard(2 + 2); err != nil { // data + CRLF
			t.Fatal(err)
		}
		if end, _ := br.ReadString('\n'); end != "END\r\n" {
			t.Fatalf("missing END, got %q", end)
		}
		return fields[4]
	}

	roundTrip(t, nc, "set k 0 0 2\r\nv1\r\n", "STORED\r\n")
	c1, c2 := casOf(), casOf()
	if c1 != c2 {
		t.Fatalf("cas changed across reads: %s vs %s", c1, c2)
	}
	roundTrip(t, nc, "set k 0 0 2\r\nv2\r\n", "STORED\r\n")
	if c3 := casOf(); c3 == c1 {
		t.Fatalf("cas unchanged after rewrite: %s", c3)
	}
}

// TestSplitReads feeds commands one byte at a time — the parser must
// tolerate any fragmentation the network produces.
func TestSplitReads(t *testing.T) {
	srv, _ := newTestServer(t, "stock", Config{})
	nc := dial(t, srv)
	req := "set frag 0 0 4\r\nabcd\r\nget frag\r\n"
	for i := 0; i < len(req); i++ {
		if _, err := io.WriteString(nc, req[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	want := "STORED\r\nVALUE frag 0 4\r\nabcd\r\nEND\r\n"
	got := make([]byte, len(want))
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(nc, got); err != nil {
		t.Fatalf("%v (got %q)", err, got)
	}
	if string(got) != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

// TestNoreplyStorm pipelines a burst of noreply sets followed by replied
// gets in one write: the asynchronous sets must all be applied (batch drain
// before the batch's responses conclude) and produce no responses of their
// own.
func TestNoreplyStorm(t *testing.T) {
	srv, _ := newTestServer(t, "dps", Config{})
	nc := dial(t, srv)
	const n = 200
	var req bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&req, "set storm%d 0 0 4 noreply\r\nv%03d\r\n", i, i)
	}
	var want bytes.Buffer
	for i := 0; i < n; i += 50 {
		fmt.Fprintf(&req, "get storm%d\r\n", i)
		fmt.Fprintf(&want, "VALUE storm%d 0 4\r\nv%03d\r\nEND\r\n", i, i)
	}
	roundTrip(t, nc, req.String(), want.String())
	if pe := srv.Stats().ProtocolErrors.Load(); pe != 0 {
		t.Fatalf("%d protocol errors", pe)
	}
}

// TestCrossConnectionVisibility: a noreply set on one connection must be
// visible to a get on another once the first batch's responses arrived
// (sessions drain at batch boundaries).
func TestCrossConnectionVisibility(t *testing.T) {
	srv, _ := newTestServer(t, "dps", Config{})
	nc1 := dial(t, srv)
	nc2 := dial(t, srv)
	// The replied get closes conn 1's batch, so the noreply set is drained
	// by the time END arrives.
	roundTrip(t, nc1, "set shared 0 0 3 noreply\r\nabc\r\nget nothing\r\n", "END\r\n")
	roundTrip(t, nc2, "get shared\r\n", "VALUE shared 0 3\r\nabc\r\nEND\r\n")
}

// TestOversizedValue: a data block over MaxValue is swallowed (stream stays
// aligned) and answered SERVER_ERROR.
func TestOversizedValue(t *testing.T) {
	srv, _ := newTestServer(t, "stock", Config{MaxValue: 1024})
	nc := dial(t, srv)
	big := strings.Repeat("x", 2048)
	roundTrip(t, nc, "set big 0 0 2048\r\n"+big+"\r\n",
		"SERVER_ERROR object too large for cache\r\n")
	// The connection survives and the stream is aligned.
	roundTrip(t, nc, "set small 0 0 2\r\nok\r\nget small\r\n",
		"STORED\r\nVALUE small 0 2\r\nok\r\nEND\r\n")
	if pe := srv.Stats().ProtocolErrors.Load(); pe == 0 {
		t.Fatal("oversized set not counted as protocol error")
	}
}

// TestBadDataChunk: a data block without its CRLF terminator is past
// recovery; the server answers and closes.
func TestBadDataChunk(t *testing.T) {
	srv, _ := newTestServer(t, "stock", Config{})
	nc := dial(t, srv)
	if _, err := io.WriteString(nc, "set k 0 0 2\r\nabXset j 0 0 1\r\n"); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, _ := io.ReadAll(nc)
	if !bytes.Contains(resp, []byte("CLIENT_ERROR bad data chunk\r\n")) {
		t.Fatalf("got %q", resp)
	}
	_ = srv
}

// TestStats exercises the stats command's counter block, on a variant served
// key by key and on one served in waves (whose get counters are added once
// per wave): the totals must not differ.
func TestStats(t *testing.T) {
	for _, variant := range []string{"stock", "dps"} {
		t.Run(variant, func(t *testing.T) {
			srv, _ := newTestServer(t, variant, Config{})
			nc := dial(t, srv)
			roundTrip(t, nc, "set s 0 0 1\r\nx\r\n", "STORED\r\n")
			roundTrip(t, nc, "get s\r\nget t s u\r\n", "VALUE s 0 1\r\nx\r\nEND\r\nVALUE s 0 1\r\nx\r\nEND\r\n")
			if _, err := io.WriteString(nc, "stats\r\n"); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(nc)
			stats := map[string]string{}
			for {
				line, err := br.ReadString('\n')
				if err != nil {
					t.Fatal(err)
				}
				if line == "END\r\n" {
					break
				}
				var name, val string
				if _, err := fmt.Sscanf(line, "STAT %s %s", &name, &val); err != nil {
					t.Fatalf("bad stat line %q", line)
				}
				stats[name] = val
			}
			for name, want := range map[string]string{
				"cmd_get": "4", "cmd_set": "1", "get_hits": "2", "get_misses": "2",
				"curr_connections": "1", "curr_items": "1", "protocol_errors": "0",
				"batches": "2", "batched_ops": "5",
			} {
				if stats[name] != want {
					t.Errorf("STAT %s = %s, want %s (all: %v)", name, stats[name], want, stats)
				}
			}
		})
	}
}

// TestMaxConnsGate: connections past MaxConns are rejected with an error
// line, counted, and the server keeps serving admitted connections.
func TestMaxConnsGate(t *testing.T) {
	srv, _ := newTestServer(t, "stock", Config{MaxConns: 1})
	nc := dial(t, srv)
	roundTrip(t, nc, "version\r\n", "VERSION dps-mcd/1.0\r\n")

	nc2 := dial(t, srv)
	_ = nc2.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, _ := io.ReadAll(nc2)
	if !bytes.Contains(resp, []byte("SERVER_ERROR too many connections")) {
		t.Fatalf("second connection got %q", resp)
	}
	if rej := srv.Stats().ConnsRejected.Load(); rej != 1 {
		t.Fatalf("ConnsRejected = %d", rej)
	}
	roundTrip(t, nc, "version\r\n", "VERSION dps-mcd/1.0\r\n")
}

// TestChaosServerDrain is the drain contract under load and injected
// operation delays: Shutdown must not drop any in-flight response — every
// command the server counted produced a response some client read before
// its connection closed.
func TestChaosServerDrain(t *testing.T) {
	store, err := mcd.Open("dps", mcd.Config{
		Partitions: 2,
		MemLimit:   8 << 20,
		MaxThreads: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	inj := chaos.New(chaos.Config{Seed: 7, OpDelayProb: 0.05, OpDelay: 2 * time.Millisecond})
	srv, err := New(Config{Store: store, Sessions: 2, Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()

	const clients = 8
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		responses uint64
	)
	stop := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			var mine uint64
			for n := 0; ; n++ {
				select {
				case <-stop:
					// Keep going until the server closes us: the drain
					// should let in-flight batches finish.
				default:
				}
				req := fmt.Sprintf("set c%dk%d 0 0 8\r\nvvvvvvvv\r\nget c%dk%d\r\n", id, n%64, id, n%64)
				if _, err := io.WriteString(nc, req); err != nil {
					break
				}
				// Two replied commands → STORED + VALUE/END block.
				ok := true
				for r := 0; r < 2; r++ {
					if err := readOneResponse(br); err != nil {
						ok = false
						break
					}
					mine++
				}
				if !ok {
					break
				}
			}
			mu.Lock()
			responses += mine
			mu.Unlock()
		}(i)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	m := srv.Stats().Snapshot()
	counted := m.CmdGet + m.CmdSet + m.CmdDelete
	if responses != counted {
		t.Fatalf("drain dropped responses: clients read %d, server executed %d (delta %d)",
			responses, counted, int64(counted)-int64(responses))
	}
	if m.ProtocolErrors != 0 {
		t.Fatalf("%d protocol errors under chaos drain", m.ProtocolErrors)
	}
	if counted == 0 {
		t.Fatal("no load reached the server before drain")
	}
}

// readOneResponse consumes one command's complete response (STORED line or
// VALUE…END / END block).
func readOneResponse(br *bufio.Reader) error {
	line, err := br.ReadString('\n')
	if err != nil {
		return err
	}
	if !strings.HasPrefix(line, "VALUE ") {
		return nil // STORED / END / error line
	}
	fields := strings.Fields(line)
	var size int
	if _, err := fmt.Sscanf(fields[3], "%d", &size); err != nil {
		return err
	}
	if _, err := br.Discard(size + 2); err != nil {
		return err
	}
	_, err = br.ReadString('\n') // END
	return err
}

// TestShutdownIdempotent: double Shutdown is safe and the second call
// returns immediately.
func TestShutdownIdempotent(t *testing.T) {
	srv, _ := newTestServer(t, "stock", Config{})
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
}
