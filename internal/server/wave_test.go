package server

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"dps/internal/chaos"
	"dps/internal/core"
	"dps/internal/mcd"
)

// valueBlock is the reply block of one hit.
func valueBlock(key string, flags int, data string) string {
	return fmt.Sprintf("VALUE %s %d %d\r\n%s\r\n", key, flags, len(data), data)
}

// casBlock is valueBlock for gets: the cas unique is the content hash of the
// stored entry.
func casBlock(key string, flags uint32, data string) string {
	entry := make([]byte, entrySize(len(key), len(data)))
	copy(entry[putEntryHeader(entry, flags, []byte(key)):], data)
	return fmt.Sprintf("VALUE %s %d %d %d\r\n%s\r\n", key, flags, len(data), entryCAS(entry), data)
}

// TestWaveProtocolGolden drives mixed pipelines — each request string is one
// write, so the server sees it as one batch — byte for byte on every variant.
// On the dps variants consecutive gets ride one wave; the other variants
// answer key by key; the bytes on the wire must not differ.
func TestWaveProtocolGolden(t *testing.T) {
	longKey := strings.Repeat("k", maxKeyLen+1)
	var manyKeys, manyReply, manyGets, manyGetsReply strings.Builder
	for i := 0; i < 2*mcd.MaxWave+8; i++ { // a multi-get and a pipeline longer than two waves
		key := []string{"a", "nope", "b"}[i%3]
		manyKeys.WriteString(" " + key)
		manyGets.WriteString("get " + key + "\r\n")
		switch key {
		case "a":
			manyReply.WriteString(valueBlock("a", 0, "old"))
			manyGetsReply.WriteString(valueBlock("a", 0, "old") + "END\r\n")
		case "b":
			manyReply.WriteString(valueBlock("b", 9, "bb"))
			manyGetsReply.WriteString(valueBlock("b", 9, "bb") + "END\r\n")
		default:
			manyGetsReply.WriteString("END\r\n")
		}
	}
	steps := []struct{ name, req, want string }{
		{"populate", "set a 0 0 3\r\nold\r\nset b 9 0 2\r\nbb\r\n", "STORED\r\nSTORED\r\n"},
		{"multi-key get with misses",
			"get a nope b nope2\r\n",
			valueBlock("a", 0, "old") + valueBlock("b", 9, "bb") + "END\r\n"},
		{"gets cas in a wave",
			"gets a\r\nget a\r\ngets nope b\r\n",
			casBlock("a", 0, "old") + "END\r\n" + valueBlock("a", 0, "old") + "END\r\n" + casBlock("b", 9, "bb") + "END\r\n"},
		{"multi-get past the wave cap", "get" + manyKeys.String() + "\r\n", manyReply.String() + "END\r\n"},
		{"pipeline past the wave cap", manyGets.String(), manyGetsReply.String()},
		{"unknown command mid-wave",
			"get a\r\nget b\r\nbogus\r\nget a\r\n",
			valueBlock("a", 0, "old") + "END\r\n" + valueBlock("b", 9, "bb") + "END\r\nERROR\r\n" + valueBlock("a", 0, "old") + "END\r\n"},
		{"malformed get mid-wave",
			"get b\r\nget " + longKey + "\r\nget\r\nget a\r\n",
			valueBlock("b", 9, "bb") + "END\r\nCLIENT_ERROR bad key\r\nCLIENT_ERROR bad command line format\r\n" + valueBlock("a", 0, "old") + "END\r\n"},
		{"replied set between gets",
			"get a\r\nset c 1 0 2\r\ncc\r\nget c a\r\n",
			valueBlock("a", 0, "old") + "END\r\nSTORED\r\n" + valueBlock("c", 1, "cc") + valueBlock("a", 0, "old") + "END\r\n"},
		{"read-your-writes inside a batch",
			"get a\r\nset a 0 0 3 noreply\r\nnew\r\nget a\r\ndelete b noreply\r\nget b a\r\n",
			valueBlock("a", 0, "old") + "END\r\n" + valueBlock("a", 0, "new") + "END\r\n" + valueBlock("a", 0, "new") + "END\r\n"},
	}
	for _, variant := range mcd.Variants() {
		t.Run(variant, func(t *testing.T) {
			srv, _ := newTestServer(t, variant, Config{})
			nc := dial(t, srv)
			for _, s := range steps {
				t.Run(s.name, func(t *testing.T) { roundTrip(t, nc, s.req, s.want) })
			}
			// A command split across two TCP reads: the wave stays open over
			// the blocking read and closes when the batch does.
			if _, err := io.WriteString(nc, "get a\r\nge"); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond) // let the server consume the first segment
			roundTrip(t, nc, "t c\r\n", valueBlock("a", 0, "new")+"END\r\n"+valueBlock("c", 1, "cc")+"END\r\n")
			if pe, want := srv.Stats().ProtocolErrors.Load(), uint64(3); pe != want {
				t.Fatalf("%d protocol errors, want %d", pe, want)
			}
		})
	}
}

// TestStorageStraddlingRefill is the regression test for keys hashed after
// the data block was read: a storage command's key aliases the read buffer,
// and a data block that straddles a buffer refill slides the buffer under it.
// A long pipeline of sets puts every ~100th command across a refill; each key
// must come back under its own name, and an add of an existing key must see
// it, on a delegating and a non-delegating variant alike.
func TestStorageStraddlingRefill(t *testing.T) {
	const n = 1 << 14 // ≈ 2.5 MB of commands through a 16 KiB buffer: ~150 straddles
	val := strings.Repeat("v", 128)
	for _, variant := range []string{"stock", "dps"} {
		t.Run(variant, func(t *testing.T) {
			store, err := mcd.Open(variant, mcd.Config{Partitions: 2, MaxThreads: 16})
			if err != nil {
				t.Fatal(err)
			}
			nc := dial(t, serveStore(t, store, Config{}))
			_ = nc.SetDeadline(time.Now().Add(60 * time.Second))
			br := bufio.NewReaderSize(nc, 64<<10)

			// send writes a pipeline while the caller reads its replies.
			send := func(format string, args func(i int) []any) <-chan error {
				errc := make(chan error, 1) // the writer's one verdict
				go func() {
					bw := bufio.NewWriterSize(nc, 64<<10)
					for i := 0; i < n; i++ {
						fmt.Fprintf(bw, format, args(i)...)
					}
					errc <- bw.Flush()
				}()
				return errc
			}
			expect := func(want string) {
				t.Helper()
				got := make([]byte, len(want))
				if _, err := io.ReadFull(br, got); err != nil || string(got) != want {
					t.Fatalf("got %q (%v), want %q", got, err, want)
				}
			}

			sets := send("set k%d 0 0 128 noreply\r\n%s\r\n", func(i int) []any { return []any{i, val} })
			if err := <-sets; err != nil {
				t.Fatal(err)
			}
			gets := send("get k%d\r\n", func(i int) []any { return []any{i} })
			misses := 0
			for i := 0; i < n; i++ {
				line, err := br.ReadString('\n')
				if err != nil {
					t.Fatal(err)
				}
				if line == "END\r\n" {
					misses++
					continue
				}
				if want := fmt.Sprintf("VALUE k%d 0 128\r\n", i); line != want {
					t.Fatalf("get k%d: got %q, want %q", i, line, want)
				}
				expect(val + "\r\nEND\r\n")
			}
			if err := <-gets; err != nil {
				t.Fatal(err)
			}
			if misses != 0 || store.Len() != n {
				t.Fatalf("%d of %d keys missing, store holds %d items", misses, n, store.Len())
			}

			adds := send("add k%d 0 0 128\r\n%s\r\n", func(i int) []any { return []any{i, val} })
			for i := 0; i < n; i++ {
				if line, err := br.ReadString('\n'); err != nil || line != "NOT_STORED\r\n" {
					t.Fatalf("add k%d of an existing key: %q (%v), want NOT_STORED", i, line, err)
				}
			}
			if err := <-adds; err != nil {
				t.Fatal(err)
			}
			if store.Len() != n {
				t.Fatalf("store holds %d items after the adds, want %d", store.Len(), n)
			}
		})
	}
}

// TestWaveBackendTimeoutExactKeys: one session serves the front door from
// locality 0 and the only thread of locality 1 is a raw core thread that
// never calls (a session between calls would be Idle), so delegations to
// partition 1 outlive OpTimeout — either in flight
// (idle locality) or before they are staged, in the ring-full wait (every
// ring full). A pipeline mixing both partitions' keys gets SERVER_ERROR
// backend timeout in place of exactly the wedged keys' replies — everything
// else intact and in request order — instead of hanging, and the batch
// boundary reclaims the timed-out entries.
func TestWaveBackendTimeoutExactKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		inj  *chaos.Injector
	}{
		{"idle locality", nil},
		{"ring full", chaos.New(chaos.Config{RingFullProb: 1})},
	} {
		t.Run(tc.name, func(t *testing.T) { testBackendTimeout(t, tc.inj) })
	}
}

func testBackendTimeout(t *testing.T, inj *chaos.Injector) {
	store, err := mcd.Open("dps", mcd.Config{
		Partitions: 2, MaxThreads: 8, OpTimeout: 20 * time.Millisecond, Chaos: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serveStore(t, store, Config{Sessions: 1}) // its one session registers at locality 0
	// Locality 1's only thread; it never calls.
	wedge, err := store.(interface{ Runtime() *core.Runtime }).Runtime().RegisterAt(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wedge.Unregister)
	nc := dial(t, srv)
	br := bufio.NewReader(nc)

	// A replied set answers STORED for a key of the serving session's own
	// partition and times out for one of the wedged partition.
	const timeout = "SERVER_ERROR backend timeout\r\n"
	var local, wedged []string
	for i := 0; len(local) < 2 || len(wedged) < 2; i++ {
		key := fmt.Sprintf("key%d", i)
		if _, err := fmt.Fprintf(nc, "set %s 0 0 1\r\nx\r\n", key); err != nil {
			t.Fatal(err)
		}
		_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		switch line, err := br.ReadString('\n'); {
		case err != nil:
			t.Fatal(err)
		case line == "STORED\r\n":
			local = append(local, key)
		case line == timeout:
			wedged = append(wedged, key)
		default:
			t.Fatalf("set %s: %q", key, line)
		}
	}

	before := srv.Stats().Snapshot()
	abandoned := store.Metrics().Totals.Abandoned
	req := fmt.Sprintf("get %s\r\nget %s\r\nget %s %s %s\r\nget %s\r\n",
		local[0], wedged[0], local[1], wedged[1], local[0], wedged[1])
	want := valueBlock(local[0], 0, "x") + "END\r\n" +
		timeout + "END\r\n" +
		valueBlock(local[1], 0, "x") + timeout + valueBlock(local[0], 0, "x") + "END\r\n" +
		timeout + "END\r\n"
	got := make([]byte, len(want))
	if _, err := io.WriteString(nc, req); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(br, got); err != nil || string(got) != want {
		t.Fatalf("got %q (%v)\nwant %q", got, err, want)
	}
	after := srv.Stats().Snapshot()
	if d := after.CmdGet - before.CmdGet; d != 6 {
		t.Errorf("cmd_get rose by %d, want 6", d)
	}
	if d := after.GetHits - before.GetHits; d != 3 {
		t.Errorf("get_hits rose by %d, want 3", d)
	}
	if d := after.GetMisses - before.GetMisses; d != 0 {
		t.Errorf("get_misses rose by %d, want 0: a failed lookup is not a miss", d)
	}
	if d := after.ProtocolErrors - before.ProtocolErrors; d != 3 {
		t.Errorf("protocol_errors rose by %d, want 3", d)
	}
	// The replies were flushed after the batch boundary's Drain: nothing is
	// left in flight toward the wedged partition. Gets that timed out in
	// flight were abandoned; gets that timed out in the ring-full wait were
	// never staged.
	m := store.Metrics()
	if occ := m.PerPartition[1].RingOccupancy; occ != 0 {
		t.Errorf("%d slots still in flight to partition 1", occ)
	}
	wantAbandoned := uint64(3)
	if inj != nil {
		wantAbandoned = 0
	}
	if d := m.Totals.Abandoned - abandoned; d != wantAbandoned {
		t.Errorf("Abandoned rose by %d, want %d", d, wantAbandoned)
	}
}

// TestReadDeadlineArmedAtBlockingReads: the idle deadline is armed only when
// a read finds the buffer empty. That must still close an idle connection
// and one stuck mid-command — after answering the complete commands before
// the stuck one — and must keep a connection that sends a command every so
// often open well past ReadTimeout.
func TestReadDeadlineArmedAtBlockingReads(t *testing.T) {
	const readTimeout = 300 * time.Millisecond
	srv, _ := newTestServer(t, "dps", Config{ReadTimeout: readTimeout})
	closedWithin := func(t *testing.T, send, want string) {
		t.Helper()
		nc := dial(t, srv)
		start := time.Now()
		if _, err := io.WriteString(nc, send); err != nil {
			t.Fatal(err)
		}
		_ = nc.SetReadDeadline(start.Add(20 * readTimeout))
		rest, err := io.ReadAll(nc) // returns at the server's close
		if err != nil {
			t.Fatalf("connection still open after %v: %v", time.Since(start), err)
		}
		if took := time.Since(start); took < readTimeout/2 {
			t.Fatalf("closed after %v, before ReadTimeout %v", took, readTimeout)
		}
		if string(rest) != want {
			t.Fatalf("got %q before close, want %q", rest, want)
		}
	}
	t.Run("idle", func(t *testing.T) { closedWithin(t, "", "") })
	t.Run("partial command", func(t *testing.T) { closedWithin(t, "get a\r\nget b", "END\r\n") })
	t.Run("active", func(t *testing.T) {
		nc := dial(t, srv)
		for i := 0; i < 6; i++ { // 6 × ⅓ ReadTimeout: twice the timeout in all
			roundTrip(t, nc, "get nothing\r\n", "END\r\n")
			time.Sleep(readTimeout / 3)
		}
		roundTrip(t, nc, "version\r\n", "VERSION dps-mcd/1.0\r\n")
	})
}
