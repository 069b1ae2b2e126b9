// Command dpsnode runs one process of a DPS cluster: a partitioned cache
// (internal/mcd's dps variant) that serves its locally-owned partitions
// to peer processes and/or delegates peer-owned partitions over TCP.
// It is the scale-out demonstrator behind `make peer-smoke`: two dpsnode
// processes with split partition ownership, cross-process
// read-your-writes, optional chaos link faults, and a watchdog that
// exits nonzero if any delegated completion is lost.
//
// Roles (combinable — a node can serve and dial at once):
//
//	dpsnode -listen 127.0.0.1:0 -addr-file /tmp/a.addr -serve-for 60s
//	    serve every partition not handed to a peer; write the bound
//	    address to the file, then serve for the duration (or until the
//	    process is signalled).
//
//	dpsnode -peer "ADDR=2,3" -ops 2000
//	    keep partitions 0,1 local, delegate 2,3 to the peer at ADDR, and
//	    run the verification workload: sync sets, verified gets, async
//	    overwrites with read-your-writes checks, deletes.
//
// Exit status: 0 on success, 1 on configuration or startup failure, 2 on
// a verification failure (wrong value, read-your-writes violation, or a
// completion neither resolved nor timed out — the lost-completion
// watchdog).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dps/internal/chaos"
	"dps/internal/core"
	"dps/internal/mcd"
)

type peerFlag struct{ peers []core.Peer }

func (p *peerFlag) String() string { return fmt.Sprintf("%d peers", len(p.peers)) }

// Set parses "host:port=2,3" — a peer address and the partitions it owns.
func (p *peerFlag) Set(s string) error {
	addr, list, ok := strings.Cut(s, "=")
	if !ok || addr == "" || list == "" {
		return fmt.Errorf("want host:port=part,part..., got %q", s)
	}
	var parts []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad partition %q in %q", f, s)
		}
		parts = append(parts, n)
	}
	p.peers = append(p.peers, core.Peer{Addr: addr, Parts: parts})
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		partitions  = flag.Int("partitions", 4, "cluster-wide partition count (identical on every node)")
		variant     = flag.String("variant", "dps", "cache variant: dps or dps-parsec")
		listen      = flag.String("listen", "", "serve locally-owned partitions on this host:port (\":0\" for ephemeral)")
		addrFile    = flag.String("addr-file", "", "write the bound -listen address to this file once serving")
		serveFor    = flag.Duration("serve-for", 0, "serving role: exit cleanly after this long (0 = until signalled)")
		bounceAfter = flag.Duration("bounce-after", 0, "serving role: restart the peer listener after this long (0 = never)")
		bounceDown  = flag.Duration("bounce-down", 250*time.Millisecond, "how long the listener stays dark during a -bounce-after restart")
		opTimeout   = flag.Duration("op-timeout", 2*time.Second, "per-operation delegation timeout")
		ops         = flag.Int("ops", 0, "dialing role: run the verification workload over this many keys")
		chaosDrop   = flag.Float64("chaos-drop", 0, "probability a delegated frame is silently dropped")
		chaosSlow   = flag.Float64("chaos-slow", 0, "probability a frame write is delayed")
		chaosDelay  = flag.Duration("chaos-slow-delay", 2*time.Millisecond, "delay applied when -chaos-slow fires")
		chaosDown   = flag.Float64("chaos-peerdown", 0, "probability the peer link is severed before a write")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "chaos decision-stream seed")
		verbose     = flag.Bool("v", false, "log per-phase progress")
	)
	var peers peerFlag
	flag.Var(&peers, "peer", "peer process owning partitions, as host:port=part,part (repeatable)")
	flag.Parse()

	cfg := mcd.Config{
		Partitions: *partitions,
		PeerListen: *listen,
		OpTimeout:  *opTimeout,
	}
	chaosOn := *chaosDrop > 0 || *chaosSlow > 0 || *chaosDown > 0
	if chaosOn {
		cfg.Chaos = chaos.New(chaos.Config{
			Seed:          *chaosSeed,
			DropFrameProb: *chaosDrop,
			SlowLinkProb:  *chaosSlow,
			SlowLinkDelay: *chaosDelay,
			PeerDownProb:  *chaosDown,
		})
	}
	for _, p := range peers.peers {
		p.Timeout = *opTimeout
		cfg.Peers = append(cfg.Peers, p)
	}

	st, err := mcd.Open(*variant, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpsnode: open %s: %v\n", *variant, err)
		return 1
	}
	defer st.Close()

	if *listen != "" {
		addr := st.(mcd.PeerListener).PeerAddr()
		fmt.Printf("dpsnode: serving on %s\n", addr)
		if *addrFile != "" {
			tmp := *addrFile + ".tmp"
			if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dpsnode: addr-file: %v\n", err)
				return 1
			}
			if err := os.Rename(tmp, *addrFile); err != nil {
				fmt.Fprintf(os.Stderr, "dpsnode: addr-file: %v\n", err)
				return 1
			}
		}
	}

	if *ops > 0 {
		if code := workload(st, *ops, chaosOn, *verbose); code != 0 {
			return code
		}
		fmt.Printf("dpsnode: workload ok (%d keys)\n", *ops)
	}

	if *listen != "" && *ops == 0 {
		// Pure serving role: park until the duration elapses or a signal
		// arrives. Serving itself happens on the store's internal threads.
		// With -bounce-after set, the park demos a mid-run peer restart:
		// the listener goes dark, peers ride it out on retry + redial, and
		// the dedup window keeps their retransmissions idempotent.
		if *bounceAfter > 0 {
			go func() {
				time.Sleep(*bounceAfter)
				fmt.Printf("dpsnode: bouncing peer listener (dark for %v)\n", *bounceDown)
				if err := st.(mcd.PeerListener).BouncePeer(*bounceDown); err != nil {
					fmt.Fprintf(os.Stderr, "dpsnode: bounce: %v\n", err)
					return
				}
				fmt.Println("dpsnode: peer listener back up")
			}()
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		if *serveFor > 0 {
			select {
			case <-time.After(*serveFor):
			case <-sig:
			}
		} else {
			<-sig
		}
		fmt.Println("dpsnode: shutting down")
	}

	if err := st.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "dpsnode: close: %v\n", err)
		return 2 // a drain that cannot finish is a stuck completion
	}
	return 0
}

// workload drives the verification pass. With chaos on, individual
// operations may fail with ErrTimeout/ErrClosed — that is the fault
// surfacing correctly, and such keys are skipped — but a successful read
// must always return a value this process wrote, and after a full drain
// no completion may remain pending (the lost-completion watchdog).
func workload(st mcd.Store, n int, chaosOn bool, verbose bool) int {
	sess, err := st.Session()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpsnode: session: %v\n", err)
		return 1
	}
	defer sess.Close()

	logf := func(format string, args ...any) {
		if verbose {
			fmt.Printf("dpsnode: "+format+"\n", args...)
		}
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "dpsnode: FAIL: "+format+"\n", args...)
		return 2
	}
	opErr := func(phase string, key uint64, err error) (int, bool) {
		if chaosOn && (errors.Is(err, core.ErrTimeout) || errors.Is(err, core.ErrClosed) ||
			errors.Is(err, core.ErrPeerDown)) {
			logf("%s %d: injected fault: %v", phase, key, err)
			return 0, true
		}
		return fail("%s %d: %v", phase, key, err), false
	}

	val := func(k uint64, gen int) string { return fmt.Sprintf("g%d-key%d", gen, k) }
	written := make(map[uint64]bool, n)
	faults := 0

	logf("phase 1: %d sync sets", n)
	for k := uint64(0); k < uint64(n); k++ {
		if err := sess.Set(k, []byte(val(k, 1))); err != nil {
			code, injected := opErr("set", k, err)
			if !injected {
				return code
			}
			faults++
			continue
		}
		written[k] = true
	}

	logf("phase 2: verified gets (%d keys written)", len(written))
	for k := range written {
		v, ok, err := sess.Get(k)
		if err != nil {
			code, injected := opErr("get", k, err)
			if !injected {
				return code
			}
			faults++
			continue
		}
		if !ok || string(v) != val(k, 1) {
			return fail("get %d: got %q ok=%v, want %q", k, v, ok, val(k, 1))
		}
	}

	logf("phase 3: async overwrite + read-your-writes")
	for k := range written {
		sess.SetAsync(k, []byte(val(k, 2)))
		v, ok, err := sess.Get(k)
		if err != nil {
			code, injected := opErr("ryw-get", k, err)
			if !injected {
				return code
			}
			faults++
			// The async overwrite raced an injected fault; either
			// generation may win, so drop the key from strict checking.
			delete(written, k)
			continue
		}
		if !ok {
			return fail("read-your-writes %d: key vanished", k)
		}
		if got := string(v); got != val(k, 2) {
			if chaosOn && got == val(k, 1) {
				// The async frame was dropped: the old value surviving is
				// the fault, not a reordering. Stale ≠ out of order.
				logf("ryw %d: async frame dropped, old generation visible", k)
				delete(written, k)
				faults++
				continue
			}
			return fail("read-your-writes %d: got %q, want %q", k, got, val(k, 2))
		}
	}

	logf("phase 4: drain + lost-completion watchdog")
	sess.Drain()
	deadline := time.Now().Add(5 * time.Second)
	for {
		pending := 0
		for _, pm := range st.Metrics().Peers {
			pending += pm.Pending
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fail("lost completion: %d delegated bursts still pending after drain", pending)
		}
		time.Sleep(10 * time.Millisecond)
	}

	m := st.Metrics()
	for _, pm := range m.Peers {
		fmt.Printf("dpsnode: peer %s\n", pm)
	}
	if chaosOn {
		fmt.Printf("dpsnode: survived %d injected faults\n", faults)
	}
	if len(m.Peers) > 0 && m.Totals.RemoteOps == 0 {
		return fail("peers configured but no operation crossed the wire")
	}
	return 0
}
