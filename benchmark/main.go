// Command benchmark is this repository's end-to-end benchmark: it drives one
// dps mcd store through its three entry points (in-process sessions, the
// memcached front door, a loopback wire peer), each in a saturated closed-loop
// phase and a paced open-loop phase, verifies every reply, and prints the
// metrics BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// The phases' fixed lengths. A run measures for -seconds, split into three
// windows of each of the three phases (sat, solo, paced); a traced run spends
// that time on one untraced saturated window, one traced window of each phase,
// and the probes.
const (
	warmup      = 2 * time.Second
	phases      = 3
	windowsEach = 9
	setupRuns   = 5
	// maxMissShare invalidates a run of a non-evicting workload: every key
	// was stored and nothing should have been evicted.
	maxMissShare = 0.005
	// maxSelfTimeGap is how far server.self_us + mcd.session_us, taken from
	// different sample sets, may be from the mean request span.
	maxSelfTimeGap = 0.05
	// watchdog ends a wedged run before the driver's 180 s limit.
	watchdog = 170 * time.Second
)

// measured is one printed metric.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// environment is printed once per invocation, before any result.
type environment struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Loopback   bool    `json:"loopback"`
	Load1      float64 `json:"load1"`
	Noisy      bool    `json:"noisy"`
}

func captureEnv(seed int64) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		Loopback:   true, // server, peer and generator share this process and 127.0.0.1
		Load1:      -1,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				env.Load1 = v
			}
		}
	}
	env.Noisy = env.Load1 > 0.5*float64(env.NProc)
	return env
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated key, op and value")
		seconds = flag.Float64("seconds", defaultSeconds, "seconds measured per workload")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics and writing out/trace-<workload>.json")
		check   = flag.Bool("check", false, "run every workload twice and fail if a gated metric differs by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*check && *trace == 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-check]")
		os.Exit(2)
	}
	run := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []workload{*w}
		time.AfterFunc(watchdog, func() {
			fmt.Fprintln(os.Stderr, "benchmark: watchdog: run exceeded", watchdog)
			os.Exit(3)
		})
	}
	envLine, _ := json.Marshal(captureEnv(*seed)) // plain data: cannot fail
	fmt.Printf("env %s\n", envLine)

	passes := 1
	if *check {
		passes = 2
	}
	results := make([]map[string]result, passes)
	for p := range results {
		results[p] = make(map[string]result)
		for i := range run {
			w := &run[i]
			res, err := runWorkload(w, *seed, *seconds, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			results[p][w.name] = res
			line, _ := json.Marshal(res) // plain data: cannot fail
			fmt.Printf("%s\n", line)
		}
	}
	if *check && !agree(run, results[0], results[1]) {
		os.Exit(1)
	}
}

// agree is -check: two passes of the same code must agree within each gated
// metric's bound on every workload, and neither may fail an op.
func agree(run []workload, a, b map[string]result) bool {
	ok := true
	for _, w := range run {
		ra, rb := a[w.name], b[w.name]
		if !ra.Correct || !rb.Correct {
			fmt.Printf("check %-16s FAIL: a run was not correct\n", w.name)
			ok = false
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.name].Value, rb.Metrics[m.name].Value
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := "ok"
			if !(diff <= m.bound) {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("check %-16s %-10s %12.4f %12.4f  differ %5.1f%%  bound %4.1f%%  %s\n",
				w.name, m.name, va, vb, 100*diff, 100*m.bound, verdict)
		}
	}
	return ok
}

// runWorkload sets the workload up, warms it, measures it and tears it down.
func runWorkload(w *workload, seed int64, seconds float64, traced bool) (result, error) {
	baseline := runtime.NumGoroutine()
	vals := newValues(seed, w.valueSize)
	winLen := time.Duration(seconds / (phases * windowsEach) * float64(time.Second))
	fmt.Printf("\n== %s: %s\n", w.name, w.why)

	// Each span buffer of a traced run has room for 150k spans per second of
	// window, several times what one goroutine records today; what does not
	// fit is dropped and counted.
	spanCap, runs := 0, setupRuns
	if traced {
		spanCap, runs = int(winLen.Seconds()*150_000), 1
	}
	var sys *system
	var setups []float64
	for i := 0; i < runs; i++ {
		if sys != nil {
			if err := sys.teardown(); err != nil {
				return result{}, fmt.Errorf("teardown: %w", err)
			}
		}
		start := time.Now()
		var err error
		if sys, err = setup(w, vals, spanCap); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	satWindow(sys, w, seed, streamWarmup, 0, warmup)

	res := result{Metrics: make(map[string]measured)}
	var err error
	if traced {
		err = measureTraced(sys, w, vals, seed, winLen, &res)
	} else {
		measure(sys, w, seed, winLen, setups, &res)
	}
	if terr := sys.teardown(); err == nil && terr != nil {
		err = fmt.Errorf("teardown: %w", terr)
	}
	if err != nil {
		return result{}, err
	}
	if left := awaitGoroutines(baseline); left > 0 {
		fmt.Printf("INVALID: %d goroutines outlived the workload's teardown\n", left)
		res.Correct = false
	}
	return res, nil
}

// account folds windows into the result's op counts and validity.
func account(w *workload, res *result, wins ...window) {
	all := total(wins...)
	res.Attempted, res.Failed = all.ops, all.failed
	missShare := ratio(float64(all.misses), float64(all.gets))
	res.Correct = all.failed == 0 && all.ops > 0
	fmt.Printf("%-22s %12.6f share  (%d failed of %d attempted)\n", "failed_share", ratio(float64(all.failed), float64(all.ops)), all.failed, all.ops)
	fmt.Printf("%-22s %12.6f share  (%d misses of %d gets; not gated)\n", "miss_share", missShare, all.misses, all.gets)
	if !w.evicting && missShare >= maxMissShare {
		fmt.Printf("INVALID: miss_share %.4f on a fully populated, non-evicting store\n", missShare)
		res.Correct = false
	}
}

// printed lists, in print order, every metric of an untraced run; those that
// endToEnd names are gated and go into the result, the rest are information.
var printed = []struct {
	name, unit string
	phase      string  // the phase whose latencies quantile is taken of
	quantile   float64 // 0 for metrics that are not latency quantiles
	note       string
}{
	{"ops_per_s", "1/s", "", 0, "sat: every client closed-loop, full pipeline"},
	{"p50_us", "us", "solo", 0.50, "solo: one client, one op in flight, closed loop"},
	{"p99_us", "us", "solo", 0.99, ""},
	{"paced_p50_us", "us", "paced", 0.50, "paced: open loop through one client, from due time"},
	{"paced_p99_us", "us", "paced", 0.99, ""},
	{"paced_p999_us", "us", "paced", 0.999, ""},
	{"late_share", "share", "", 0, "paced ops sent > 1 ms after due"},
	{"setup_s", "s", "", 0, "open, dial, store every key"},
}

// measure is the untraced run: the only source of end-to-end metrics.
func measure(sys *system, w *workload, seed int64, winLen time.Duration, setups []float64, res *result) {
	var wins []window
	series := map[string][]float64{"setup_s": setups}
	quantiles := func(phase string, win window) {
		for _, p := range printed {
			if p.phase != phase {
				continue
			}
			if v, ok := percentile(win.lat, p.quantile); ok {
				series[p.name] = append(series[p.name], float64(v)/1e3)
			}
		}
		win.lat = nil // summarised: only the counts are needed from here on
		wins = append(wins, win)
	}
	// The phases take turns, so that each metric's windows are spread over the
	// whole run and a few bad seconds on the host cannot hit all of one phase.
	for i := 0; i < windowsEach; i++ {
		win := satWindow(sys, w, seed, streamSat, i, winLen)
		wins = append(wins, win)
		series["ops_per_s"] = append(series["ops_per_s"], win.opsPerSec())
		quantiles("solo", soloWindow(sys.clients[0], w, seed, i, winLen))
		win = pacedWindow(sys.clients[0], w, seed, i, winLen)
		quantiles("paced", win)
		series["late_share"] = append(series["late_share"], ratio(float64(win.late), float64(win.ops)))
	}
	fmt.Printf("sat: %d clients x pipeline %d; solo: 1 client x 1 op; paced: %.0f ops/s; %d windows of %v per phase\n",
		len(sys.clients), w.pipeline, w.pacedRate, windowsEach, winLen)
	for _, p := range printed {
		med, spread := medianSpread(series[p.name])
		gate := "not gated"
		for _, m := range endToEnd {
			if m.name == p.name {
				gate = fmt.Sprintf("gated %.0f%%", 100*m.bound)
				res.Metrics[m.name] = measured{med, m.unit}
			}
		}
		fmt.Printf("%-14s %14.4f %-6s %-10s quartile spread %5.1f%% of windows %.4g  %s\n", p.name, med, p.unit, gate, 100*spread, series[p.name], p.note)
	}
	account(w, res, wins...)
}

// measureTraced is the traced run: per-layer metrics only.
func measureTraced(sys *system, w *workload, vals *values, seed int64, winLen time.Duration, res *result) error {
	m := make(map[string]float64)
	untraced := satWindow(sys, w, seed, streamSat, 0, winLen)

	before := sys.metrics()
	sys.traced.on.Store(true)
	sat := satWindow(sys, w, seed, streamSat, 1, winLen)
	solo := soloWindow(sys.clients[0], w, seed, 0, winLen)
	paced := pacedWindow(sys.clients[0], w, seed, 0, winLen)
	sys.traced.on.Store(false)
	d := sys.metrics().Delta(before)
	account(w, res, untraced, sat, solo, paced)
	traced := total(sat, solo, paced)
	ops := float64(traced.ops)

	m["trace_overhead_share"] = 1 - ratio(sat.opsPerSec(), untraced.opsPerSec())
	m["mcd.miss_share"] = ratio(float64(traced.misses), float64(traced.gets))

	t := d.Totals
	sends := float64(t.RemoteSends + t.AsyncSends)
	m["core.remote_share"] = ratio(sends+float64(t.RemoteOps), sends+float64(t.RemoteOps+t.LocalExecs))
	m["core.ops_per_slot"] = d.Bursts.OpsPerSlot()
	m["core.ring_full_share"] = ratio(float64(t.RingFullWaits), sends)
	m["core.parks_per_kop"] = 1e3 * ratio(float64(t.Parks), ops)
	m["core.stalls"] = float64(t.Stalls + t.PeerStalls)
	m["mcd.arena_fallback_share"] = ratio(float64(t.ArenaFallbacks), float64(t.ArenaAcquires+t.ArenaFallbacks))
	m["server.ops_per_batch"] = d.Server.PipelineDepth()
	m["server.bytes_per_op"] = ratio(float64(d.Server.BytesIn+d.Server.BytesOut), float64(d.Server.Commands()))
	if len(d.Peers) > 0 {
		p := d.Peers[0]
		m["wire.frames_per_op"] = ratio(float64(p.FramesSent), ops)
		m["wire.bytes_per_op"] = ratio(float64(p.BytesSent+p.BytesRecvd), ops)
		m["wire.retry_share"] = ratio(float64(p.Retries), float64(p.FramesSent))
	}

	// Spans: session spans from the store decorator, request spans from the
	// socket clients, joined by key and containment.
	sessions, dropped := sys.traced.sessionSpans()
	m["mcd.session_us"] = meanDur(sessions) / 1e3
	var joined []joinedSpan
	roots := sessions
	if len(sys.reqBufs) > 0 {
		var requests []rawSpan
		for _, b := range sys.reqBufs {
			requests = append(requests, b.spans...)
			dropped += b.dropped
		}
		var orphans int
		joined, orphans = joinSessions(requests, sessions)
		roots = nil
		var self int64
		for _, j := range joined {
			self += selfNs(j.request, []rawSpan{j.session})
		}
		m["server.self_us"] = ratio(float64(self), float64(len(joined))) / 1e3
		request := meanDur(requests) / 1e3
		sum := m["server.self_us"] + m["mcd.session_us"]
		gap := math.Abs(sum-request) / request
		fmt.Printf("self-time table (us, means): request %.3f = server.self %.3f + mcd.session %.3f (sum %.3f, off by %.1f%%; %d requests sampled, %d joined, %d without a child)\n",
			request, m["server.self_us"], m["mcd.session_us"], sum, 100*gap, len(requests), len(joined), orphans)
		if gap > maxSelfTimeGap {
			fmt.Printf("INVALID: the self times do not add up to the request span within %.0f%%\n", 100*maxSelfTimeGap)
			res.Correct = false
		}
	}
	path, err := writeTrace("out", w.name, seed, joined, roots, dropped)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace: %s (%d session spans recorded, %d dropped)\n", path, len(sessions), dropped)

	if err := runProbes(w, vals, seed, m); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	for _, def := range perLayer {
		res.Metrics[def.name] = measured{m[def.name], def.unit}
		fmt.Printf("%-26s %14.4f %s\n", def.name, m[def.name], def.unit)
	}
	return nil
}
