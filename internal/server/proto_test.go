package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"dps/internal/mcd"
)

func TestParseCommandGet(t *testing.T) {
	cmd := newCommand()
	if err := parseCommand([]byte("get foo"), cmd); err != nil {
		t.Fatal(err)
	}
	if cmd.op != opGet || len(cmd.keys) != 1 || string(cmd.keys[0]) != "foo" {
		t.Fatalf("parsed %+v", cmd)
	}
	if err := parseCommand([]byte("gets a b  c"), cmd); err != nil {
		t.Fatal(err)
	}
	if cmd.op != opGets || len(cmd.keys) != 3 || string(cmd.keys[2]) != "c" {
		t.Fatalf("parsed %+v", cmd)
	}
}

func TestParseCommandStorage(t *testing.T) {
	cmd := newCommand()
	if err := parseCommand([]byte("set foo 123 0 10"), cmd); err != nil {
		t.Fatal(err)
	}
	if cmd.op != opSet || string(cmd.keys[0]) != "foo" || cmd.flags != 123 || cmd.bytes != 10 || cmd.noreply {
		t.Fatalf("parsed %+v", cmd)
	}
	if err := parseCommand([]byte("set foo 0 0 5 noreply"), cmd); err != nil {
		t.Fatal(err)
	}
	if !cmd.noreply {
		t.Fatalf("noreply not parsed: %+v", cmd)
	}
	if err := parseCommand([]byte("add bar 7 3600 2"), cmd); err != nil {
		t.Fatal(err)
	}
	if cmd.op != opAdd || cmd.exptime != 3600 {
		t.Fatalf("parsed %+v", cmd)
	}
}

func TestParseCommandErrors(t *testing.T) {
	cmd := newCommand()
	cases := []struct {
		line string
		want error
	}{
		{"bogus foo", errUnknownCommand},
		{"", errUnknownCommand},
		{"get", errBadFormat},
		{"set foo 0 0", errBadFormat},
		{"set foo x 0 5", errBadFormat},
		{"set foo 0 0 5 nope", errBadFormat},
		{"set foo 0 0 5 noreply extra", errBadFormat},
		{"delete", errBadKey},
		{"set " + string(make([]byte, 251)), errBadKey},
		{"get ke\x01y", errBadKey},
	}
	for _, tc := range cases {
		if err := parseCommand([]byte(tc.line), cmd); !errors.Is(err, tc.want) {
			t.Errorf("parseCommand(%q) = %v, want %v", tc.line, err, tc.want)
		}
	}
	// Too many keys on one get line.
	line := []byte("get")
	for i := 0; i <= maxGetKeys; i++ {
		line = append(line, " k"...)
	}
	if err := parseCommand(line, cmd); !errors.Is(err, errTooManyKeys) {
		t.Errorf("oversized multi-get: %v, want %v", err, errTooManyKeys)
	}
}

func TestParseUint(t *testing.T) {
	if v, ok := parseUint([]byte("18446744073709551615")); !ok || v != ^uint64(0) {
		t.Fatalf("max uint64: %d %v", v, ok)
	}
	for _, bad := range []string{"", "18446744073709551616", "1x", "-1", "999999999999999999999"} {
		if _, ok := parseUint([]byte(bad)); ok {
			t.Errorf("parseUint(%q) accepted", bad)
		}
	}
}

func TestEntryRoundTrip(t *testing.T) {
	key := []byte("hello")
	data := []byte("world!")
	buf := make([]byte, entrySize(len(key), len(data)))
	off := putEntryHeader(buf, 0xdeadbeef, key)
	copy(buf[off:], data)
	flags, k, d, ok := decodeEntry(buf)
	if !ok || flags != 0xdeadbeef || string(k) != "hello" || string(d) != "world!" {
		t.Fatalf("decoded flags=%#x key=%q data=%q ok=%v", flags, k, d, ok)
	}
	// Foreign byte blobs under a colliding hash must not decode as entries.
	if _, _, _, ok := decodeEntry([]byte{1, 2}); ok {
		t.Fatal("short buffer decoded")
	}
	if _, _, _, ok := decodeEntry([]byte{0, 0, 0, 0, 0xff, 0xff, 'x'}); ok {
		t.Fatal("truncated key decoded")
	}
}

func TestEntryCASDeterministic(t *testing.T) {
	a := []byte("same bytes")
	if entryCAS(a) != entryCAS(append([]byte(nil), a...)) {
		t.Fatal("cas not content-determined")
	}
	if entryCAS([]byte("a")) == entryCAS([]byte("b")) {
		t.Fatal("cas collision on trivial inputs")
	}
}

// TestParseCommandAllocs pins parseCommand, and through it the tokenizer
// helpers, at zero allocations per command.
func TestParseCommandAllocs(t *testing.T) {
	cmd := newCommand()
	lines := [][]byte{
		[]byte("get foo bar baz"),
		[]byte("set key 1 0 128 noreply"),
		[]byte("delete key noreply"),
		[]byte("gets a b c d e f"),
	}
	n := testing.AllocsPerRun(200, func() {
		for _, line := range lines {
			if err := parseCommand(line, cmd); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n != 0 {
		t.Fatalf("parseCommand allocates %.1f/op, want 0", n)
	}
}

// TestHashKeyAllocs pins hashKey at zero allocations.
func TestHashKeyAllocs(t *testing.T) {
	key := []byte("some-protocol-key")
	var sink uint64
	n := testing.AllocsPerRun(200, func() { sink += hashKey(key) })
	if n != 0 {
		t.Fatalf("hashKey allocates %.1f/op, want 0", n)
	}
	_ = sink
}

// FuzzParse holds the request side of the front door to two properties on
// arbitrary input. parseCommand never panics and fails only with the
// package's sentinel errors. And a connection's replies depend on the
// request bytes, not on how the reads split them: one stream fed to a conn
// over net.Pipe in one write and in three writes cut at fuzzed offsets gets
// byte-identical replies from the stock store — the property doStore's
// read-buffer aliasing broke. STAT lines are left out of the comparison
// (bytes_read and batches count reads).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"get foo\r\ngets a b  c\r\n",
		"set foo 123 0 10\r\n0123456789\r\nget foo\r\n",
		"set foo 0 0 5 noreply\r\nhello\r\nadd bar 7 3600 2\r\nhi\r\nget foo bar\r\n",
		"add bar 7 3600 2\r\nhi\r\nadd bar 0 0 2\r\nho\r\ndelete bar\r\ndelete bar noreply\r\n",
		"bogus foo\r\n\r\nget\r\nset foo 0 0\r\nset foo x 0 5\r\ndelete\r\nget ke\x01y\r\n",
		"set foo 0 0 5 nope\r\nset foo 0 0 5 noreply extra\r\nversion\r\nstats\r\n",
		"set k 0 0 2\r\nabXset j 0 0 1\r\n",
		"get a\r\nget b",
		"set a 0 0 1\r\nx\r\nquit\r\nget a\r\n",
	} {
		f.Add([]byte(seed), uint16(len(seed)/3), uint16(2*len(seed)/3))
	}
	f.Fuzz(func(t *testing.T, stream []byte, cut1, cut2 uint16) {
		cmd := newCommand()
		for _, line := range append(bytes.Split(stream, []byte("\n")), stream) {
			err := parseCommand(bytes.TrimSuffix(line, []byte("\r")), cmd)
			if err != nil && !errors.Is(err, errUnknownCommand) && !errors.Is(err, errBadFormat) &&
				!errors.Is(err, errBadKey) && !errors.Is(err, errTooManyKeys) {
				t.Fatalf("parseCommand(%q) = %v, not a protocol sentinel", line, err)
			}
		}
		a, b := int(cut1)%(len(stream)+1), int(cut2)%(len(stream)+1)
		if a > b {
			a, b = b, a
		}
		whole := withoutStats(serveStream(t, stream))
		split := withoutStats(serveStream(t, stream[:a], stream[a:b], stream[b:]))
		if !bytes.Equal(whole, split) {
			t.Fatalf("replies depend on read boundaries (cuts %d, %d) for %q:\none write: %q\nsplit:     %q", a, b, stream, whole, split)
		}
	})
}

// serveStream writes chunks, in order, to one connection of a fresh
// server over an empty stock store, then ends the request stream, and
// returns every reply byte the connection wrote before it closed.
func serveStream(t *testing.T, chunks ...[]byte) []byte {
	store, err := mcd.Open("stock", mcd.Config{MemLimit: 1 << 20, Buckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Config{Store: store, Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(time.Second)
	reqClient, reqServer := net.Pipe()
	replyServer, replyClient := net.Pipe()
	c := srv.newConn(halfPipe{Conn: reqServer, out: replyServer})
	go c.serve()
	go func() {
		for _, chunk := range chunks {
			if len(chunk) == 0 {
				continue
			}
			if _, err := reqClient.Write(chunk); err != nil {
				break // the server closed first (quit, bad data chunk)
			}
		}
		reqClient.Close()
	}()
	replies, _ := io.ReadAll(replyClient)
	return replies
}

// halfPipe is a server-side net.Conn over two net.Pipes that behaves like
// a TCP connection the client half-closed: the client can end its request
// stream (EOF at the server) and still read every reply. Like TCP, and
// unlike a bare net.Pipe, arming the read deadline still succeeds after the
// client's end closed.
type halfPipe struct {
	net.Conn // the request pipe: Read
	out      net.Conn
}

func (h halfPipe) Write(p []byte) (int, error)        { return h.out.Write(p) }
func (h halfPipe) SetWriteDeadline(t time.Time) error { return h.out.SetWriteDeadline(t) }
func (h halfPipe) SetReadDeadline(t time.Time) error {
	_ = h.Conn.SetReadDeadline(t)
	return nil
}
func (h halfPipe) Close() error {
	h.out.Close()
	return h.Conn.Close()
}

// withoutStats drops STAT lines from a reply stream.
func withoutStats(replies []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(replies, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("STAT ")) {
			out = append(out, line...)
		}
	}
	return out
}
