package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"syscall"
	"time"

	"cwnsim/internal/experiments"
	"cwnsim/internal/machine"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// bench is one named workload: a fixed batch of simulations (a round)
// built from the workload seed, run again and again while the clock
// runs.
type bench interface {
	name() string
	// threads is the number of goroutines the workload keeps busy.
	threads(nproc int) int
	// setup performs one complete set-up from scratch, recording a span
	// around each public call it makes.
	setup(sp *spans, parent int) setupOut
	// round runs the batch once on the state of the last setup.
	round(o roundOpts) round
}

// roundOpts selects how a round runs. Every mode must leave the
// simulated results unchanged.
type roundOpts struct {
	sp     *spans
	parent int
	traced bool // wrap each strategy in the handler-timing wrapper
	probe  bool // read allocation and CPU counters around each call
	// shards, when not nil, overrides the workload's shard count (0 is
	// the sequential machine).
	shards *int
	// noSampling switches the time-series observers off.
	noSampling bool
}

// setupOut is one set-up's host cost, split by layer.
type setupOut struct {
	total, topo, routing, tree, newMachine time.Duration
	routingBytes, allocBytes               uint64
	goals, cut                             int
}

// runOut is one simulation's outcome.
type runOut struct {
	newDur, runDur      time.Duration
	newBytes, newAllocs uint64 // with roundOpts.probe
	cpu                 time.Duration
	pes                 int
	st                  *machine.Stats
	pending             int // engine events left after a sequential Run; -1 when unknown
	digest              uint64
	err                 error
	handled             handled
}

// round is one batch of simulations.
type round struct {
	runs []runOut
	// wall is the host time of the simulations alone: the summed Run
	// calls of a stream workload, the RunAll call of the sweep.
	wall    time.Duration
	handled handled
}

// digest folds the round's per-run digests in run order.
func (r round) digest() uint64 {
	h := fnv.New64a()
	for _, ro := range r.runs {
		fmt.Fprintf(h, "%x;", ro.digest)
	}
	return h.Sum64()
}

// timesOnly returns the round without its runs' Stats, so that the
// rounds a run keeps for their timings do not hold the heap.
func (r round) timesOnly() round {
	r.runs = slices.Clone(r.runs)
	for i := range r.runs {
		r.runs[i].st = nil
	}
	return r
}

// busy is the round's Run time summed over its runs, in seconds: for
// the sweep, the workers' busy time rather than the RunAll wall.
func (r round) busy() float64 {
	var d time.Duration
	for _, ro := range r.runs {
		d += ro.runDur
	}
	return d.Seconds()
}

func (r round) events() uint64 {
	var n uint64
	for _, ro := range r.runs {
		if ro.st != nil {
			n += ro.st.Events
		}
	}
	return n
}

// statsDigest hashes the simulated outcome of one run: the fields a
// speed-only change must leave identical. Host times are not part of it.
func statsDigest(st *machine.Stats) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%t|%t|%d|%d|%d|%d|%d|%d|%d|%v|%d|%d|%d|%d|%d|%d|%v|%v",
		st.Completed, st.Stalled, st.Result, st.Makespan, st.Events,
		st.JobsInjected, st.JobsDone, st.GoalsExecuted, st.RespIntegrated,
		st.MsgCounts, st.TotalBusy, st.GoalsLost, st.JobsAborted,
		st.JobsRetried, st.JobsAbandoned, st.GoalsRequeued,
		st.Sojourn.Mean(), st.SojournP99())
	return h.Sum64()
}

// subSeed derives the seed of one input of a workload from the
// workload seed: salt names the input (run seed, chaos seed, ...) and i
// the run. The SplitMix64 finalizer spreads neighbouring workload seeds
// apart; the result is positive, because RunSpec reads 0 as "default".
func subSeed(seed int64, salt, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(salt)<<32 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if s := int64(z >> 1); s != 0 {
		return s
	}
	return 1
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// streamFib is the program of every job of the stream workloads.
const streamFib = 9

// streamBench is a workload of open job streams on one machine shape:
// each run of a round builds a fresh machine on the shared topology and
// runs its stream to the end.
type streamBench struct {
	label string
	shard int // Config.Shards, also the thread count when positive
	topo  func() *topology.Topology
	check func(st *machine.Stats, goals int) error
	specs []experiments.RunSpec

	// The topology and tree of the last set-up, shared by the runs.
	t    *topology.Topology
	tree *workload.Tree
}

func (b *streamBench) name() string { return b.label }

func (b *streamBench) threads(int) int { return max(b.shard, 1) }

func (b *streamBench) setup(sp *spans, parent int) setupOut {
	var o setupOut
	m0 := memStats()
	id, t0 := sp.begin("topology.build", parent)
	topo := b.topo()
	o.topo = sp.end(id, t0)

	mr := memStats()
	id, t0 = sp.begin("topology.Dist", parent)
	topo.Dist(0, topo.Size()-1) // forces the lazy routing tables
	o.routing = sp.end(id, t0)
	o.routingBytes = memStats().TotalAlloc - mr.TotalAlloc

	id, t0 = sp.begin("workload.NewFib", parent)
	tree := workload.NewFib(streamFib)
	o.tree = sp.end(id, t0)

	// The set-up ends where the first simulated event would fire: after
	// the first run's strategy, arrival source and machine exist.
	spec := b.specs[0]
	id, t0 = sp.begin("machine.NewStream", parent)
	machine.NewStream(topo, spec.Arrival.Build(tree), spec.Strategy.Build(), spec.Config())
	o.newMachine = sp.end(id, t0)
	o.total = o.topo + o.routing + o.tree + o.newMachine
	o.allocBytes = memStats().TotalAlloc - m0.TotalAlloc
	o.goals = tree.Count()
	o.cut = len(topo.Partition(2).Cross)
	b.t, b.tree = topo, tree
	return o
}

func (b *streamBench) round(o roundOpts) round {
	var r round
	for i, spec := range b.specs {
		if o.shards != nil {
			spec.Shards = *o.shards
		}
		if o.noSampling {
			spec.SampleInterval = 0
		}
		id, t0 := o.sp.begin(fmt.Sprintf("run %d", i), o.parent)
		r.runs = append(r.runs, b.one(spec, o, id))
		o.sp.end(id, t0)
	}
	for _, ro := range r.runs {
		r.wall += ro.runDur
		r.handled.add(ro.handled)
	}
	return r
}

func (b *streamBench) one(spec experiments.RunSpec, o roundOpts, parent int) (ro runOut) {
	ro.pending, ro.pes = -1, b.t.Size()
	defer func() {
		if p := recover(); p != nil {
			ro.err = fmt.Errorf("run panicked: %v", p)
		}
	}()
	strat := spec.Strategy.Build()
	var tr *tracedStrategy
	if o.traced {
		strat, tr = wrapStrategy(strat)
	}
	src := spec.Arrival.Build(b.tree)
	cfg := spec.Config()
	var m0 runtime.MemStats
	if o.probe {
		m0 = memStats()
	}
	id, t0 := o.sp.begin("machine.NewStream", parent)
	m := machine.NewStream(b.t, src, strat, cfg)
	ro.newDur = o.sp.end(id, t0)
	if o.probe {
		m1 := memStats()
		ro.newBytes, ro.newAllocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	}
	c0 := cpuTime()
	id, t0 = o.sp.begin("Machine.Run", parent)
	ro.st = m.Run()
	ro.runDur = o.sp.end(id, t0)
	if o.probe {
		ro.cpu = cpuTime() - c0
	}
	if cfg.Shards == 0 {
		ro.pending = m.Engine().Pending()
	}
	if tr != nil {
		ro.handled = tr.total()
	}
	ro.digest = statsDigest(ro.st)
	ro.err = b.check(ro.st, b.tree.Count())
	return ro
}

// checkHealthyStream is the output check of a stream without faults:
// every injected job completes with the right value, and every goal of
// every job runs exactly once.
func checkHealthyStream(st *machine.Stats, goals int) error {
	switch {
	case !st.Completed || st.Stalled:
		return fmt.Errorf("stream did not complete (completed=%t stalled=%t)", st.Completed, st.Stalled)
	case st.JobsDone != st.JobsInjected:
		return fmt.Errorf("jobs done %d != injected %d", st.JobsDone, st.JobsInjected)
	case st.GoalsExecuted != st.JobsDone*int64(goals):
		return fmt.Errorf("goals executed %d != jobs %d x %d goals", st.GoalsExecuted, st.JobsDone, goals)
	case st.Result != workload.FibValue(streamFib):
		return fmt.Errorf("last job returned %d, want fib(%d)=%d", st.Result, streamFib, workload.FibValue(streamFib))
	}
	return nil
}

// checkFaultStream is the output check of a crash-chaos stream: the
// retry ledger balances, goodput is a fraction, and a completed run
// accounts for every injected job.
func checkFaultStream(st *machine.Stats, _ int) error {
	switch g := st.Goodput(); {
	case st.Stalled:
		return fmt.Errorf("stream stalled with %d jobs in flight", st.JobsInjected-st.JobsDone)
	case st.JobsRetried+st.JobsAbandoned != st.JobsAborted:
		return fmt.Errorf("retry ledger: retried %d + abandoned %d != aborted %d", st.JobsRetried, st.JobsAbandoned, st.JobsAborted)
	case g < 0 || g > 1:
		return fmt.Errorf("goodput %v outside [0,1]", g)
	case st.Completed && st.JobsDone+st.JobsAbandoned != st.JobsInjected:
		return fmt.Errorf("jobs done %d + abandoned %d != injected %d", st.JobsDone, st.JobsAbandoned, st.JobsInjected)
	}
	return nil
}

// newStreamGrid64GM is the load-broadcast and standing-timer workload: a
// sequential open stream on a materialized 64x64 grid under GM(1,2,20),
// the shape of the ledger's open/ctrl-grid64-gm. It owns the routing
// table cost and bypasses shards, scenarios and machine.Pool.
func newStreamGrid64GM(seed int64, short bool) bench {
	side, runs := 64, 12
	if short {
		side, runs = 16, 2
	}
	b := &streamBench{
		label: "stream-grid64-gm",
		topo:  func() *topology.Topology { return topology.NewGrid(side, side) },
		check: checkHealthyStream,
	}
	for i := 0; i < runs; i++ {
		b.specs = append(b.specs, experiments.RunSpec{
			Strategy: experiments.GM(1, 2, 20),
			Arrival:  experiments.PoissonArrivals(25, 5),
			Warmup:   1_000,
			MaxTime:  20_000,
			Seed:     subSeed(seed, 0, i),
		})
	}
	return b
}

// newFaultTorus64K2 is the shard-protocol, scenario and observer
// workload: failure-aware CWN on a 64x64 torus in implicit form (no
// routing tables) on two shards, under crash chaos striking 32x32 block
// domains, periodic checkpoints, a one-retry budget tight enough that
// jobs are abandoned, and windowed sampling.
func newFaultTorus64K2(seed int64, short bool) bench {
	side, runs, jobs, block := 64, 12, 30, 32
	if short {
		side, runs, jobs, block = 16, 2, 20, 8
	}
	b := &streamBench{
		label: "fault-torus64-k2",
		shard: 2,
		topo:  func() *topology.Topology { return topology.NewTorusImplicit(side, side) },
		check: checkFaultStream,
	}
	for i := 0; i < runs; i++ {
		b.specs = append(b.specs, experiments.RunSpec{
			Strategy: experiments.StrategySpec{Kind: "cwn", Radius: 9, Horizon: 2, FailureAware: true},
			Arrival:  experiments.PoissonArrivals(25, jobs),
			Warmup:   1_000,
			MaxTime:  30_000,
			Seed:     subSeed(seed, 0, i),
			Scenario: fmt.Sprintf("chaos:mtbf=400:mttr=200:crash:domain=block:%dx%d@seed=%d,checkpoint:every=200:cost=1@t=0",
				block, block, subSeed(seed, 1, i)),
			RetryLimit:     1,
			RetryBackoff:   20,
			SampleInterval: 100,
			Shards:         2,
		})
	}
	return b
}

// sweepBench is the paper's Table 2 comparison run the way cmd/paper
// and cmd/validate run it: experiments.SpeedupSuite through RunAll on
// one worker per CPU.
type sweepBench struct {
	specs   []experiments.RunSpec
	workers int
}

// newPaperSweep is the strategy-decision, short-run and per-worker Pool
// workload: 240 closed single-job runs of CWN and GM on grids and
// lattice-meshes of up to 400 PEs (96 smaller ones in short mode).
func newPaperSweep(seed int64, short bool, nproc int) bench {
	specs := experiments.SpeedupSuite(short)
	for i := range specs {
		specs[i].Seed = subSeed(seed, 0, i)
	}
	return &sweepBench{specs: specs, workers: nproc}
}

func (b *sweepBench) name() string { return "paper-sweep" }

func (b *sweepBench) threads(nproc int) int { return b.workers }

// setup builds every distinct topology (with its routing tables) and
// every tree of the sweep from scratch, as the spec layer's caches do on
// first use. RunAll itself reuses those caches, so the timed rounds
// start warm.
func (b *sweepBench) setup(sp *spans, parent int) setupOut {
	var o setupOut
	m0 := memStats()
	seenT, seenW := map[string]bool{}, map[string]bool{}
	for _, s := range b.specs {
		if ts := s.Topo; !seenT[ts.Label()] {
			seenT[ts.Label()] = true
			id, t0 := sp.begin("topology.build "+ts.Label(), parent)
			var topo *topology.Topology
			switch ts.Kind {
			case "grid":
				topo = topology.NewGrid(ts.Rows, ts.Cols)
			case "dlm":
				topo = topology.NewDLM(ts.Rows, ts.Cols, ts.Span)
			default:
				panic("perfbench: sweep topology kind " + ts.Kind)
			}
			o.topo += sp.end(id, t0)
			mr := memStats()
			id, t0 = sp.begin("topology.Dist "+ts.Label(), parent)
			topo.Dist(0, topo.Size()-1)
			o.routing += sp.end(id, t0)
			o.routingBytes += memStats().TotalAlloc - mr.TotalAlloc
			o.cut += len(topo.Partition(2).Cross)
		}
		if ws := s.Workload; !seenW[ws.Label()] {
			seenW[ws.Label()] = true
			id, t0 := sp.begin("workload.build "+ws.Label(), parent)
			var tree *workload.Tree
			if ws.Kind == "fib" {
				tree = workload.NewFib(ws.M)
			} else {
				tree = workload.NewDC(ws.M, ws.N)
			}
			o.tree += sp.end(id, t0)
			o.goals += tree.Count()
		}
	}
	o.total = o.topo + o.routing + o.tree
	o.allocBytes = memStats().TotalAlloc - m0.TotalAlloc
	return o
}

func (b *sweepBench) round(o roundOpts) round {
	specs := b.specs
	if o.traced {
		specs = tracedSpecs(specs)
	}
	id, t0 := o.sp.begin("experiments.RunAll", o.parent)
	results, err := experiments.RunAll(specs, b.workers)
	var r round
	r.wall = o.sp.end(id, t0)
	if o.traced {
		r.handled = sweepHandled(o.sp, id, b.specs, results)
	}
	for i, res := range results {
		ro := runOut{pending: -1, pes: b.specs[i].Topo.PEs()}
		if res == nil {
			ro.err = fmt.Errorf("spec %d failed: %v", i, err)
		} else {
			ro.st, ro.runDur = res.Stats, res.Wall
			ro.digest = statsDigest(res.Stats)
			ro.err = checkClosed(b.specs[i], res.Stats)
		}
		r.runs = append(r.runs, ro)
	}
	return r
}

// direct builds and runs every spec of the sweep sequentially through
// machine.NewStream and Machine.Run, to time construction apart from the
// run and to read the engine's leftover events. Its digests must equal
// the RunAll round's.
func (b *sweepBench) direct(sp *spans, parent int) round {
	var r round
	for i, s := range b.specs {
		ro := runOut{pending: -1, pes: s.Topo.PEs()}
		topo, tree := s.Topo.Build(), s.Workload.Build()
		strat, src, cfg := s.Strategy.Build(), s.Arrival.Build(tree), s.Config()
		m0 := memStats()
		id, t0 := sp.begin("machine.NewStream", parent)
		m := machine.NewStream(topo, src, strat, cfg)
		ro.newDur = sp.end(id, t0)
		m1 := memStats()
		ro.newBytes, ro.newAllocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
		id, t0 = sp.begin("Machine.Run", parent)
		ro.st = m.Run()
		ro.runDur = sp.end(id, t0)
		ro.pending = m.Engine().Pending()
		ro.digest = statsDigest(ro.st)
		ro.err = checkClosed(b.specs[i], ro.st)
		r.wall += ro.runDur
		r.runs = append(r.runs, ro)
	}
	return r
}

// checkClosed is the output check of one closed single-job run: it
// completes, and the root returns the program's value.
func checkClosed(s experiments.RunSpec, st *machine.Stats) error {
	want := workload.DCSum(s.Workload.M, s.Workload.N)
	if s.Workload.Kind == "fib" {
		want = workload.FibValue(s.Workload.M)
	}
	if !st.Completed || st.Result != want {
		return fmt.Errorf("%s: completed=%t result=%d, want %d", s.Name(), st.Completed, st.Result, want)
	}
	return nil
}

// probeTopologies runs probeTopology on every distinct topology of the
// sweep, n calls in all, and averages the per-call times.
func (b *sweepBench) probeTopologies(seed int64, n int) (nextHop, dist, nbrs float64) {
	seen := map[string]bool{}
	var topos []*topology.Topology
	for _, s := range b.specs {
		if !seen[s.Topo.Label()] {
			seen[s.Topo.Label()] = true
			topos = append(topos, s.Topo.Build())
		}
	}
	for i, t := range topos {
		a, d, c := probeTopology(t, seed+int64(i), n/len(topos))
		nextHop += a / float64(len(topos))
		dist += d / float64(len(topos))
		nbrs += c / float64(len(topos))
	}
	return
}
