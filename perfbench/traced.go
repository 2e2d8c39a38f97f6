package main

import (
	"fmt"
	"time"

	"cwnsim/internal/machine"
)

// traced is the per-layer run. It interleaves untraced rounds, which
// give the baseline and read allocation and CPU counters around each
// call, with traced rounds, whose strategies time every handler; both
// must reproduce the reference digest. It then runs the layer probes.
// It reports no end-to-end metric.
func (r *runner) traced() report {
	setups := r.setups()
	warm := r.first()
	var plain, traced []round
	var goStats []goRound
	clock := r.clock()
	for i := 1; clock.more(len(plain), 2); i++ {
		id, t0 := r.sp.begin(fmt.Sprintf("round %d untraced", i), -1)
		g0 := readGo()
		rd := r.b.round(roundOpts{sp: r.sp, parent: id, probe: true})
		goStats = append(goStats, readGo().minus(g0))
		r.sp.end(id, t0)
		r.check(rd, r.want, fmt.Sprintf("untraced round %d", i))
		plain = append(plain, rd.timesOnly())

		id, t0 = r.sp.begin(fmt.Sprintf("round %d traced", i), -1)
		rd = r.b.round(roundOpts{sp: r.sp, parent: id, traced: true})
		r.sp.end(id, t0)
		r.check(rd, r.want, fmt.Sprintf("traced round %d (tracing must not change the simulation)", i))
		traced = append(traced, rd.timesOnly())
	}

	v := map[string]float64{}
	var notes []string
	perSetup := func(f func(o setupOut) float64) float64 { return median(field(setups, f)) }
	v["topology.build_s"] = perSetup(func(o setupOut) float64 { return o.topo.Seconds() })
	v["topology.routing_s"] = perSetup(func(o setupOut) float64 { return o.routing.Seconds() })
	v["topology.routing_heap_mib"] = perSetup(func(o setupOut) float64 { return float64(o.routingBytes) / (1 << 20) })
	v["topology.cut_channels"] = float64(setups[0].cut)
	v["workload.build_s"] = perSetup(func(o setupOut) float64 { return o.tree.Seconds() })
	v["workload.goals"] = float64(setups[0].goals)

	events := float64(warm.events())
	plainWall := runSeconds(r.b, plain)
	tracedWall := runSeconds(r.b, traced)
	// Per event and per handler call, time is the Run time summed over
	// the runs; for the sweep that is the workers' busy time, not the
	// RunAll wall.
	handleS := median(field(traced, func(rd round) float64 { return rd.handled.dur.Seconds() }))
	h := traced[0].handled
	v["machine.ns_per_event"] = median(field(plain, round.busy)) * 1e9 / events
	v["machine.run_self_s"] = median(field(traced, round.busy)) - handleS
	v["core.handle_s"] = handleS
	if n := h.total(); n > 0 {
		v["core.handle_ns_per_call"] = handleS * 1e9 / float64(n)
	}
	v["core.calls_goal_created"] = float64(h.calls[machine.GoalCreated])
	v["core.calls_goal_arrived"] = float64(h.calls[machine.GoalArrived])
	v["core.calls_control"] = float64(h.calls[machine.Control])
	v["core.calls_env"] = float64(h.total() - h.calls[machine.GoalCreated] - h.calls[machine.GoalArrived] - h.calls[machine.Control])
	v["bench.trace_overhead_frac"] = tracedWall/plainWall - 1

	simulated(v, warm)
	v["go.cpu_s"] = median(field(goStats, func(g goRound) float64 { return g.cpu.Seconds() }))
	v["go.mallocs"] = median(field(goStats, func(g goRound) float64 { return float64(g.mallocs) }))
	v["go.gc_cycles"] = median(field(goStats, func(g goRound) float64 { return float64(g.gcs) }))
	v["go.gc_pause_ms"] = median(field(goStats, func(g goRound) float64 { return float64(g.pause.Nanoseconds()) / 1e6 }))

	// Construction is read from the first untraced round, the engine's
	// leftover events from sequential runs. The sweep constructs inside
	// RunAll and the sharded workload's engines are per shard, so each
	// gets a round that can be read.
	build, pend := plain[0], plain
	switch b := r.b.(type) {
	case *streamBench:
		if b.shard > 0 {
			pend = []round{r.shardLayers(v, b, plain)}
			notes = append(notes, "sim.pending_end and the sim probe come from a sequential round; machine.shard_k1_over_seq, shard_speedup_k2 and sampling_overhead_frac compare single rounds with the median untraced round")
		} else {
			notes = append(notes, "machine.shard_* and metrics.sampling_overhead_frac are 0: this workload runs the sequential machine without sampling")
		}
		nh, d, nb := probeTopology(b.t, r.seed, 200_000)
		v["topology.nexthop_ns"], v["topology.dist_ns"], v["topology.neighbors_ns"] = nh, d, nb
		notes = append(notes, "experiments.worker_busy_frac is 0: this workload does not run through RunAll")
	case *sweepBench:
		id, t0 := r.sp.begin("direct pass", -1)
		direct := b.direct(r.sp, id)
		r.sp.end(id, t0)
		r.check(direct, r.want, "direct pass (must equal RunAll)")
		build, pend = direct, []round{direct}
		v["experiments.worker_busy_frac"] = median(field(plain, func(rd round) float64 {
			return rd.busy() / (float64(b.workers) * rd.wall.Seconds())
		}))
		nh, d, nb := b.probeTopologies(r.seed, 200_000)
		v["topology.nexthop_ns"], v["topology.dist_ns"], v["topology.neighbors_ns"] = nh, d, nb
		notes = append(notes,
			"machine.new_*, sim.pending_end and the sim probe come from a direct sequential pass over the specs; machine.run_self_s counts Result.Wall, which includes NewStream",
			"machine.shard_* and metrics.sampling_overhead_frac are 0: the sweep runs sequential machines without sampling")
	}
	var newS, newB, newA, pes, pending, seqRuns float64
	for _, ro := range build.runs {
		newS += ro.newDur.Seconds()
		newB += float64(ro.newBytes)
		newA += float64(ro.newAllocs)
		pes += float64(ro.pes)
	}
	for _, rd := range pend {
		for _, ro := range rd.runs {
			if ro.pending >= 0 {
				pending += float64(ro.pending)
				seqRuns++
			}
		}
	}
	v["machine.new_s"] = newS
	v["machine.new_bytes_per_pe"] = newB / pes
	v["machine.new_allocs_per_pe"] = newA / pes
	if seqRuns > 0 {
		v["sim.pending_end"] = pending / seqRuns
	}
	v["sim.probe_ns_per_event"] = probeEngine(int(v["sim.pending_end"]+0.5), r.seed, 2_000_000)
	v["sim.share_est"] = v["sim.probe_ns_per_event"] / v["machine.ns_per_event"]
	notes = append(notes, fmt.Sprintf("%d set-ups; %d untraced and %d traced rounds of %d runs", len(setups), len(plain), len(traced), len(warm.runs)))
	return report{defs: perLayer, values: v, notes: notes}
}

// simulated fills the metrics that count simulated work over one round.
func simulated(v map[string]float64, rd round) {
	var hopSum, hopN, useful, executed float64
	var injected, done float64
	for _, ro := range rd.runs {
		st := ro.st
		if st == nil {
			continue
		}
		v["machine.events"] += float64(st.Events)
		v["machine.goals_executed"] += float64(st.GoalsExecuted)
		v["machine.msgs_goal"] += float64(st.MsgCounts[machine.MsgGoal])
		v["machine.msgs_response"] += float64(st.MsgCounts[machine.MsgResponse])
		v["machine.msgs_load"] += float64(st.MsgCounts[machine.MsgLoad])
		v["machine.msgs_control"] += float64(st.MsgCounts[machine.MsgControl])
		hopSum += st.GoalHops.Mean() * float64(st.GoalHops.Total())
		hopN += float64(st.GoalHops.Total())
		v["scenario.jobs_aborted"] += float64(st.JobsAborted)
		v["scenario.jobs_retried"] += float64(st.JobsRetried)
		v["scenario.jobs_abandoned"] += float64(st.JobsAbandoned)
		v["scenario.goals_lost"] += float64(st.GoalsLost)
		v["scenario.goals_requeued"] += float64(st.GoalsRequeued)
		v["metrics.sample_windows"] += float64(st.Timeline.Len())
		injected += float64(st.JobsInjected)
		done += float64(st.JobsDone)
		if st.JobsInjected > 0 {
			useful += float64(st.JobsDone) * float64(st.Goals) / float64(st.JobsInjected)
		}
		executed += float64(st.GoalsExecuted)
	}
	if hopN > 0 {
		v["machine.goal_hops_mean"] = hopSum / hopN
	}
	if injected > 0 {
		v["scenario.goodput"] = done / injected
	}
	if executed > 0 {
		v["scenario.goal_waste_frac"] = 1 - useful/executed
	}
}

// shardLayers measures the shard protocol and the observers of a
// sharded workload: the same batch sequentially, on one shard, and on
// its own shard count without sampling. The sequential and one-shard
// rounds must agree with each other. The unsampled round fires no
// observer events, so its event count, and digest, differ.
func (r *runner) shardLayers(v map[string]float64, b *streamBench, plain []round) round {
	seq, one := 0, 1
	id, t0 := r.sp.begin("round sequential", -1)
	s := b.round(roundOpts{sp: r.sp, parent: id, shards: &seq})
	r.sp.end(id, t0)
	id, t0 = r.sp.begin("round shards=1", -1)
	k1 := b.round(roundOpts{sp: r.sp, parent: id, shards: &one})
	r.sp.end(id, t0)
	id, t0 = r.sp.begin("round unsampled", -1)
	ns := b.round(roundOpts{sp: r.sp, parent: id, noSampling: true})
	r.sp.end(id, t0)
	r.check(s, s.digest(), "sequential round")
	r.check(k1, s.digest(), "shards=1 round (must equal sequential)")
	r.check(ns, ns.digest(), "unsampled round")

	kWall := runSeconds(b, plain)
	v["machine.shard_k1_over_seq"] = k1.wall.Seconds() / s.wall.Seconds()
	v["machine.shard_speedup_k2"] = k1.wall.Seconds() / kWall
	var cpu, wall time.Duration
	for _, rd := range plain {
		for _, ro := range rd.runs {
			cpu += ro.cpu
			wall += ro.runDur
		}
	}
	v["machine.shard_cpu_frac"] = cpu.Seconds() / (float64(b.shard) * wall.Seconds())
	v["metrics.sampling_overhead_frac"] = kWall/ns.wall.Seconds() - 1
	return s
}

// goRound is the Go runtime's work over one round.
type goRound struct {
	cpu, pause time.Duration
	mallocs    uint64
	gcs        uint32
}

func readGo() goRound {
	ms := memStats()
	return goRound{cpu: cpuTime(), pause: time.Duration(ms.PauseTotalNs), mallocs: ms.Mallocs, gcs: ms.NumGC}
}

func (g goRound) minus(o goRound) goRound {
	return goRound{cpu: g.cpu - o.cpu, pause: g.pause - o.pause, mallocs: g.mallocs - o.mallocs, gcs: g.gcs - o.gcs}
}
