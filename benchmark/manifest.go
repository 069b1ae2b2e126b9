package main

// The benchmark's definition: workloads, metrics and bounds. BENCHMARK.json
// at the repository root states the same tables for the driver;
// TestManifestMatchesBenchmarkJSON keeps the two identical.

// entry names the door a workload's operations go through.
type entry int

const (
	entryInproc    entry = iota // mcd.Session calls in this process
	entryFrontdoor              // memcached text protocol over loopback TCP
	entryPeer                   // mcd.Session on a store whose partitions 2,3 live behind internal/wire
)

// workload is one traffic mix. Every field is a constant of the benchmark:
// in particular pacedRate is fixed (about 40 % of what one client sustains
// closed-loop on the 2-vCPU reference host) and never derived at run time, so
// paced latency is compared at equal offered load across commits.
type workload struct {
	name         string
	why          string
	entry        entry
	keys         uint64  // key-space size, Zipf 0.99
	valueSize    int     // bytes
	setShare     float64 // share of ops that are sets
	noreplyShare float64 // share of ops that are noreply sets (frontdoor only)
	memLimit     int64   // mcd.Config.MemLimit; 0 keeps the 64 MiB default
	evicting     bool    // misses are legitimate
	pipeline     int     // requests in flight per client
	pacedRate    float64 // ops/s offered in the paced phase
}

const partitions = 4

// nonEvictingMem is at least four times the live bytes of 2^18 keys with 128 B
// values (about 39 MiB in 150 B slab chunks), so nothing is evicted.
const nonEvictingMem = 256 << 20

var workloads = []workload{
	{
		name:  "inproc-read",
		why:   "paper 5.3: sessions straight on the dps store, 95/5 get/set 128 B; core+ring+mcd do all the work, server and wire bypassed; paced 150k ops/s",
		entry: entryInproc, keys: 1 << 18, valueSize: 128, setShare: 0.05,
		memLimit: nonEvictingMem, pipeline: 1, pacedRate: 150_000,
	},
	{
		name:  "frontdoor-read",
		why:   "same store behind the memcached socket, pipeline 8, 95/5 128 B; server parse/borrow/socket I/O dominates, delegation is a minority share; paced 50k req/s",
		entry: entryFrontdoor, keys: 1 << 18, valueSize: 128, setShare: 0.05,
		memLimit: nonEvictingMem, pipeline: 8, pacedRate: 50_000,
	},
	{
		name:  "frontdoor-write",
		why:   "front door with 50% sets (half noreply), 1 KiB values, 2^17 keys in 64 MiB: storage parsing, arenas, noreply bursts and continuous eviction; paced 40k req/s",
		entry: entryFrontdoor, keys: 1 << 17, valueSize: 1024, setShare: 0.5, noreplyShare: 0.25,
		evicting: true, pipeline: 8, pacedRate: 40_000,
	},
	{
		name:  "peer-mixed",
		why:   "two dps stores, partitions 2,3 behind internal/wire on loopback, 90/10 128 B: half the ops cross the wire tier and PeerServer; server bypassed; paced 30k ops/s",
		entry: entryPeer, keys: 1 << 18, valueSize: 128, setShare: 0.10,
		memLimit: nonEvictingMem, pipeline: 1, pacedRate: 30_000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer table.
// bound is the share of the earlier value by which a later one may be worse.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// defaultSeconds is BENCHMARK.json's run_seconds: nine windows of each of the
// three phases.
const defaultSeconds = 18

// endToEnd is what a user of the store sees: throughput at saturation, the
// latency of a lone synchronous caller, and set-up time. failed_share is not in
// this table because the driver wants metrics that are never zero; failures
// travel in the result's failed/attempted/correct fields and fail -check on
// their own. The bounds are 1.5 x the max-min spread of ten runs on the 2-vCPU
// reference guest, which comes to more than the 25 % cap for every metric (see
// README.md, Repeatability).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p99_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is printed by a traced run. Counters are deltas over the three
// traced windows together; the metrics README.md calls probes time one layer's
// public functions on their own.
var perLayer = []metricDef{
	{"workload.gen_ns", "ns", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.ops_per_batch", "ops", "higher", 0},
	{"server.bytes_per_op", "B", "lower", 0},
	{"mcd.session_us", "us", "lower", 0},
	{"mcd.stock_op_ns", "ns", "lower", 0},
	{"mcd.miss_share", "share", "lower", 0},
	{"mcd.arena_fallback_share", "share", "lower", 0},
	{"core.sync_ns", "ns", "lower", 0},
	{"core.local_ns", "ns", "lower", 0},
	{"core.async_ns", "ns", "lower", 0},
	{"core.remote_share", "share", "lower", 0},
	{"core.ops_per_slot", "ops", "higher", 0},
	{"core.ring_full_share", "share", "lower", 0},
	{"core.parks_per_kop", "parks", "lower", 0},
	{"core.stalls", "count", "lower", 0},
	{"ring.hop_ns", "ns", "lower", 0},
	{"ring.wake_us", "us", "lower", 0},
	{"wire.codec_ns", "ns", "lower", 0},
	{"wire.rtt_us", "us", "lower", 0},
	{"wire.frames_per_op", "frames", "lower", 0},
	{"wire.bytes_per_op", "B", "lower", 0},
	{"wire.retry_share", "share", "lower", 0},
	{"trace_overhead_share", "share", "lower", 0},
}
