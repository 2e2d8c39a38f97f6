// Command perfbench is the simulator's outside-in benchmark. It runs
// named workloads through the library's public API, checks the output
// of every simulation, and prints host-time metrics: the end-to-end
// metrics untraced, or the per-layer metrics with --trace 1. Run it from
// the repository root:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 50 --trace 0
//
// The last line of its output is one JSON object with the keys correct,
// attempted, failed and metrics. README.md describes the workloads and
// every metric.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose digests digests.json records.
const defaultSeed = 1

//go:embed digests.json
var digestsJSON []byte

// recorded holds each workload's round digest at defaultSeed, in hex,
// for the full and the short sizes.
type recorded struct {
	Full  map[string]string `json:"full"`
	Short map[string]string `json:"short"`
}

// recordedDigest returns the digest recorded for a workload, or 0 when
// there is none.
func recordedDigest(short bool, name string) (uint64, error) {
	var rec recorded
	if err := json.Unmarshal(digestsJSON, &rec); err != nil {
		return 0, fmt.Errorf("digests.json: %w", err)
	}
	hex := rec.Full[name]
	if short {
		hex = rec.Short[name]
	}
	if hex == "" {
		return 0, nil
	}
	d, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("digests.json: %s: %w", name, err)
	}
	return d, nil
}

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics of an untraced run, reported for
// every workload (BENCHMARK.json end_to_end).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_heap_mib", "MiB"},
	{"alloc_mib", "MiB"},
}

// alsoPrinted are end-to-end metrics printed with the others but left
// out of the JSON line. events_per_s is the round's event count, fixed
// by the seed, over run_s, so gating it as well would count one
// measurement twice.
var alsoPrinted = []metricDef{{"events_per_s", "events/s"}}

// sweepOnly are printed for paper-sweep alone, because the JSON line
// carries the same metrics for every workload; there runs_per_s is 240
// over run_s.
var sweepOnly = []metricDef{
	{"runs_per_s", "runs/s"},
	{"run_ms_p50", "ms"},
	{"run_ms_p95", "ms"},
}

// perLayer are the metrics of a traced run (BENCHMARK.json per_layer).
var perLayer = []metricDef{
	{"topology.build_s", "s"},
	{"topology.routing_s", "s"},
	{"topology.routing_heap_mib", "MiB"},
	{"topology.nexthop_ns", "ns"},
	{"topology.dist_ns", "ns"},
	{"topology.neighbors_ns", "ns"},
	{"topology.cut_channels", "count"},
	{"workload.build_s", "s"},
	{"workload.goals", "count"},
	{"machine.new_s", "s"},
	{"machine.new_bytes_per_pe", "B/PE"},
	{"machine.new_allocs_per_pe", "allocs/PE"},
	{"machine.run_self_s", "s"},
	{"machine.ns_per_event", "ns/event"},
	{"machine.events", "count"},
	{"machine.goals_executed", "count"},
	{"machine.msgs_goal", "count"},
	{"machine.msgs_response", "count"},
	{"machine.msgs_load", "count"},
	{"machine.msgs_control", "count"},
	{"machine.goal_hops_mean", "hops"},
	{"machine.shard_k1_over_seq", "ratio"},
	{"machine.shard_speedup_k2", "ratio"},
	{"machine.shard_cpu_frac", "ratio"},
	{"sim.pending_end", "count"},
	{"sim.probe_ns_per_event", "ns/event"},
	{"sim.share_est", "ratio"},
	{"core.handle_s", "s"},
	{"core.handle_ns_per_call", "ns/call"},
	{"core.calls_goal_created", "count"},
	{"core.calls_goal_arrived", "count"},
	{"core.calls_control", "count"},
	{"core.calls_env", "count"},
	{"scenario.jobs_aborted", "count"},
	{"scenario.jobs_retried", "count"},
	{"scenario.jobs_abandoned", "count"},
	{"scenario.goals_lost", "count"},
	{"scenario.goals_requeued", "count"},
	{"scenario.goodput", "ratio"},
	{"scenario.goal_waste_frac", "ratio"},
	{"metrics.sample_windows", "count"},
	{"metrics.sampling_overhead_frac", "ratio"},
	{"experiments.worker_busy_frac", "ratio"},
	{"go.cpu_s", "s"},
	{"go.mallocs", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}

var workloadNames = []string{"stream-grid64-gm", "paper-sweep", "fault-torus64-k2"}

func newBench(name string, seed int64, short bool, nproc int) (bench, error) {
	switch name {
	case "stream-grid64-gm":
		return newStreamGrid64GM(seed, short), nil
	case "paper-sweep":
		return newPaperSweep(seed, short, nproc), nil
	case "fault-torus64-k2":
		return newFaultTorus64K2(seed, short), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloadNames, ", "))
}

// checkThreads refuses a workload that would run more threads than the
// host has CPUs: its numbers would measure oversubscription.
func checkThreads(b bench, nproc int) error {
	if t := b.threads(nproc); t > nproc {
		return fmt.Errorf("refusing to report %s: it runs %d threads and this host has nproc=%d", b.name(), t, nproc)
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit code returned: 0 when every output was
// correct, 1 when some check failed, 2 when nothing was measured.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 50, "host seconds of timed rounds per workload")
	traceMode := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	short := fs.Bool("short", false, "run the small test-sized variant of each workload")
	spanDir := fs.String("spans", filepath.Join(".bench_build", "perfbench", "spans"), "directory for the traced run's span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceMode != 0 && *traceMode != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	names := workloadNames
	if *wl != "all" {
		names = []string{*wl}
	}
	nproc := runtime.NumCPU()
	var benches []bench
	for _, name := range names {
		b, err := newBench(name, *seed, *short, nproc)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if err := checkThreads(b, nproc); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		benches = append(benches, b)
	}

	out := result{Metrics: map[string]metricValue{}}
	for _, b := range benches {
		r := &runner{b: b, seed: *seed, seconds: *seconds}
		if *seed == defaultSeed {
			d, err := recordedDigest(*short, b.name())
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 2
			}
			r.recorded = d
		}
		p := provenance{b.name(), *seed, *short, nproc, runtime.GOMAXPROCS(0), runtime.Version(), b.threads(nproc)}
		fmt.Fprintf(stdout, "# %s seed=%d short=%t trace=%d nproc=%d GOMAXPROCS=%d go=%s threads=%d\n",
			p.Workload, p.Seed, p.Short, *traceMode, p.Nproc, p.GOMAXPROCS, p.Go, p.Threads)
		var rep report
		if *traceMode == 1 {
			r.sp = newSpans()
			rep = r.traced()
			path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.json", b.name(), *seed))
			if err := r.sp.write(path, p); err != nil {
				fmt.Fprintln(stderr, "perfbench: writing spans:", err)
				return 2
			}
			fmt.Fprintf(stdout, "spans: %s (%d spans)\n", path, len(r.sp.list))
		} else {
			rep = r.untraced()
		}
		rep.print(stdout, r)
		for _, e := range r.errs {
			fmt.Fprintf(stderr, "perfbench: %s: %s\n", b.name(), e)
		}
		out.Attempted += r.attempted
		out.Failed += r.failed
		prefix := ""
		if len(benches) > 1 {
			prefix = b.name() + "/"
		}
		for _, m := range rep.defs {
			out.Metrics[prefix+m.name] = metricValue{rep.values[m.name], m.unit}
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// provenance says where and how a workload ran.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Short      bool   `json:"short"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Threads    int    `json:"threads"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is one workload's metrics, with notes for the reader.
type report struct {
	defs   []metricDef
	values map[string]float64
	extra  []metricDef // printed only
	notes  []string
}

func (rep *report) print(w io.Writer, r *runner) {
	for _, m := range append(slices.Clone(rep.defs), rep.extra...) {
		fmt.Fprintf(w, "%-32s %-16.6g %s\n", m.name, rep.values[m.name], m.unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-32s %-16.6g ratio (%d of %d runs)\n", "failed_frac", frac, r.failed, r.attempted)
	fmt.Fprintf(w, "%-32s %016x\n", "digest", r.got)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// runner measures one workload and keeps its correctness account.
type runner struct {
	b                 bench
	seed              int64
	seconds           float64
	sp                *spans
	recorded          uint64 // digest recorded for this seed; 0 if none
	got               uint64 // the warm-up round's digest
	want              uint64 // the digest every round must reproduce
	attempted, failed int
	errs              []string
}

// minRounds is the fewest timed rounds a median is taken over.
const minRounds = 3

// budget paces the timed rounds so that they end within --seconds.
type budget struct {
	start, last time.Time
	limit       time.Duration
}

func (r *runner) clock() *budget {
	now := time.Now()
	return &budget{start: now, last: now, limit: time.Duration(r.seconds * float64(time.Second))}
}

// more reports whether another round should run: always until min
// rounds are done, then while one more round of the last one's length
// still fits in the budget.
func (b *budget) more(done, min int) bool {
	now := time.Now()
	lastDur := now.Sub(b.last)
	b.last = now
	return done < min || now.Sub(b.start)+lastDur <= b.limit
}

// check counts a round's runs against their output checks and the
// reference digest want; a round whose digest differs fails every run.
func (r *runner) check(rd round, want uint64, what string) {
	d := rd.digest()
	for _, ro := range rd.runs {
		r.attempted++
		if ro.err != nil || d != want {
			r.failed++
		}
		if ro.err != nil && len(r.errs) < 10 {
			r.errs = append(r.errs, what+": "+ro.err.Error())
		}
	}
	if d != want {
		r.errs = append(r.errs, fmt.Sprintf("%s: digest %016x, want %016x", what, d, want))
	}
}

// first runs the warm-up round, which grows the heap and fills the spec
// layer's caches, and fixes the reference digest: the recorded one at
// the default seed, else this round's own.
func (r *runner) first() round {
	id, t0 := r.sp.begin("round warm-up", -1)
	rd := r.b.round(roundOpts{sp: r.sp, parent: id})
	r.sp.end(id, t0)
	r.got, r.want = rd.digest(), rd.digest()
	if r.recorded != 0 {
		r.want = r.recorded
	}
	r.check(rd, r.want, "warm-up round")
	return rd
}

// setups performs at least five complete set-ups, and more while they
// have taken less than a second, up to 25; the last one stays in place
// for the rounds.
func (r *runner) setups() []setupOut {
	var outs []setupOut
	var spent time.Duration
	for len(outs) < 5 || (spent < time.Second && len(outs) < 25) {
		runtime.GC()
		id, t0 := r.sp.begin("setup", -1)
		o := r.b.setup(r.sp, id)
		r.sp.end(id, t0)
		outs = append(outs, o)
		spent += o.total
	}
	return outs
}

func (r *runner) untraced() report {
	setups := r.setups()
	warm := r.first()
	var rounds []round
	var allocs, peaks, specMs []float64
	clock := r.clock()
	for i := 1; clock.more(len(rounds), minRounds); i++ {
		// Every round starts from a collected heap with its free memory
		// returned to the OS, so the OS-backed heap at its end is what
		// that round needed.
		debug.FreeOSMemory()
		m0 := memStats()
		rd := r.b.round(roundOpts{})
		m1 := memStats()
		r.check(rd, r.want, fmt.Sprintf("round %d", i))
		rounds = append(rounds, rd.timesOnly())
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc))
		peaks = append(peaks, float64(m1.HeapSys-m1.HeapReleased))
		for _, ro := range rd.runs {
			specMs = append(specMs, float64(ro.runDur.Nanoseconds())/1e6)
		}
	}
	runS := runSeconds(r.b, rounds)
	v := map[string]float64{
		"setup_s":       median(field(setups, func(o setupOut) float64 { return o.total.Seconds() })),
		"run_s":         runS,
		"events_per_s":  float64(warm.events()) / runS,
		"peak_heap_mib": median(peaks) / (1 << 20),
		"alloc_mib": (median(field(setups, func(o setupOut) float64 { return float64(o.allocBytes) })) +
			median(allocs)) / (1 << 20),
	}
	walls := field(rounds, func(rd round) float64 { return rd.wall.Seconds() })
	rep := report{defs: endToEnd, extra: alsoPrinted, values: v}
	rep.notes = append(rep.notes, fmt.Sprintf("%d set-ups, %d timed rounds of %d runs, %d events per round, round run_s %.4g..%.4g",
		len(setups), len(walls), len(warm.runs), warm.events(), slices.Min(walls), slices.Max(walls)))
	if _, ok := r.b.(*sweepBench); ok {
		v["runs_per_s"] = float64(len(warm.runs)) / runS
		v["run_ms_p50"] = quantile(specMs, 0.50)
		v["run_ms_p95"] = quantile(specMs, 0.95)
		rep.extra = append(rep.extra, sweepOnly...)
		rep.notes = append(rep.notes, fmt.Sprintf("run_ms_p50 and run_ms_p95 are over %d per-spec Result.Wall samples (%d beyond p95)",
			len(specMs), len(specMs)-int(0.95*float64(len(specMs)))))
	}
	return rep
}

// runSeconds is the host time of one round's simulations, robust to
// the host's moment-to-moment noise: the sum over the runs of each
// run's median time for a sequence of runs, the median RunAll time for
// the sweep, whose runs overlap.
func runSeconds(b bench, rounds []round) float64 {
	if _, ok := b.(*sweepBench); ok {
		return median(field(rounds, func(rd round) float64 { return rd.wall.Seconds() }))
	}
	var sum float64
	for i := range rounds[0].runs {
		sum += median(field(rounds, func(rd round) float64 { return rd.runs[i].runDur.Seconds() }))
	}
	return sum
}

func field[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
