// Command mcdserver serves the memcached text protocol over any internal
// cache variant:
//
//	mcdserver -addr 127.0.0.1:11211 -variant dps -partitions 4
//	printf 'set k 0 0 2\r\nhi\r\nget k\r\nquit\r\n' | nc 127.0.0.1 11211
//
// SIGTERM/SIGINT drain gracefully: in-flight pipelined batches finish and
// flush, then the store shuts down and the final metrics print.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dps/internal/mcd"
	"dps/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:11211", "listen address (host:port; :0 picks a port)")
		variant      = flag.String("variant", "dps", "cache variant: "+strings.Join(mcd.Variants(), ", "))
		partitions   = flag.Int("partitions", 4, "DPS partitions")
		sessions     = flag.Int("sessions", server.DefaultSessions, "store session pool size")
		mem          = flag.Int64("mem", 64<<20, "memory limit in bytes")
		maxConns     = flag.Int("max-conns", server.DefaultMaxConns, "max concurrent connections")
		readTimeout  = flag.Duration("read-timeout", server.DefaultReadTimeout, "idle connection timeout")
		writeTimeout = flag.Duration("write-timeout", server.DefaultWriteTimeout, "response flush timeout")
		opTimeout    = flag.Duration("op-timeout", 2*time.Second, "per-operation delegation timeout (0: wait forever)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
		quiet        = flag.Bool("quiet", false, "suppress startup and metrics output")
	)
	flag.Parse()

	raiseNoFile(uint64(*maxConns) + 128)

	store, err := mcd.Open(*variant, mcd.Config{
		Partitions:   *partitions,
		MemLimit:     *mem,
		OpTimeout:    *opTimeout,
		DrainTimeout: *drainTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdserver:", err)
		os.Exit(1)
	}

	srv, err := server.New(server.Config{
		Store:        store,
		MaxConns:     *maxConns,
		Sessions:     *sessions,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdserver:", err)
		os.Exit(1)
	}
	if err := srv.Listen(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "mcdserver:", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Printf("mcdserver: variant=%s serving on %s\n", *variant, srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	if !*quiet {
		fmt.Printf("mcdserver: %v, draining (budget %v)\n", s, *drainTimeout)
	}

	exit := 0
	if err := srv.Shutdown(*drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "mcdserver: shutdown:", err)
		exit = 1
	}
	final := srv.Metrics()
	if err := store.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mcdserver: store close:", err)
		exit = 1
	}
	if !*quiet {
		fmt.Println(final.Server)
	}
	os.Exit(exit)
}

// raiseNoFile lifts RLIMIT_NOFILE toward need (best effort): every
// connection is a descriptor, and the soft default on many hosts is below
// a serious -max-conns.
func raiseNoFile(need uint64) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return
	}
	if lim.Cur >= need {
		return
	}
	lim.Cur = need
	if lim.Cur > lim.Max {
		lim.Cur = lim.Max
	}
	_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim)
}
