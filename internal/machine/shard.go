// This file is shard-path code: everything here runs inside a sharded
// run, where Config.validate has already rejected the one remaining
// global-state feature (Pool — free lists are single-threaded by
// design). The seqonly analyzer (internal/analysis) walks the call
// graph rooted at this file's functions and flags any unguarded reach
// into it. Sampling, monitoring, tracing and scripted Scenarios are
// shard-safe: each shard captures its own PE block's partials and
// buffers its own trace events, the coordinator applies scenario ops at
// window barriers (applyOps) and folds everything into the merged
// result at finalize (mergeSamples, mergeInjSoj, replayTrace below).
//
//simlint:seqonly
package machine

import (
	"math"
	"sort"
	"sync/atomic"

	"cwnsim/internal/scenario"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/trace"
)

// shardSeedSalt derives shard s's engine seed as
// Seed ^ s*shardSeedSalt (the PCG multiplier as an odd mixing
// constant), giving each shard its own tie-break stream. Shard 0 keeps
// the plain seed so a one-shard group replays the sequential machine's
// draws exactly.
const shardSeedSalt = 0x5851F42D4C957F2D

// xmsg is one cross-shard wire message with its delivery time: what a
// shard's outbox holds between a send and the window barrier that
// drains it into the receiving shard's engine.
type xmsg struct {
	at sim.Time
	w  *wireMsg
}

// shardSample is one shard's deferred contribution to one globally
// synchronized sampling instant: the raw partials over its own PE
// block, folded into full-machine series points by mergeSamples. The
// raw queue-length sums are carried (not a per-shard fairness index)
// because Jain's index is a ratio of sums — it cannot be merged from
// per-shard indices, only recomputed from the pooled partials.
type shardSample struct {
	at, window sim.Time
	busyDelta  sim.Time  // block busy time accrued inside the window
	qsum, qsq  float64   // block queue-length sum and sum of squares
	frame      []float64 // block per-PE utilization; nil unless MonitorPE
	soj        []float64 // window's raw sojourns; scenario runs only
}

// shardGroup coordinates the machines of one sharded run: K contiguous
// PE blocks, each a full Machine with its own event engine, free lists
// and statistics, advancing in lockstep windows of one conservative
// lookahead each. The protocol is the classic Chandy-Misra-Bryant
// window discipline run as a barrier loop:
//
//	repeat:
//	  every shard runs its engine to the window end W    (parallel)
//	  the coordinator drains all cross-shard outboxes    (sequential)
//	  completion check; advance W by the lookahead
//
// The lookahead is the minimum wire latency on any channel crossing a
// shard boundary, so no message sent inside a window can be due before
// the window after it — every shard always holds its complete event
// set for the window it is executing, with no rollbacks and no null
// messages. Determinism: shards interact only through the outboxes
// (drained in a fixed order by the single-threaded coordinator) and
// one shared in-flight job counter (atomic adds commute; branched on
// only at barriers), so a run is a pure function of seed and shard
// count — the parallel schedule cannot change the result, pinned by
// the ShardSerial cross-checks.
type shardGroup struct {
	// inFlight is the group-wide injected-but-uncompleted job count,
	// updated atomically from any shard. First field: 64-bit aligned.
	inFlight int64

	topo *topology.Topology
	cfg  Config
	part topology.Partition
	k    int // shard count after clamping to the machine size
	home int // the shard owning RootPE: source, arrivals, injection

	// lookahead is the conservative window width; winEnd the current
	// window's end, read by handOff's safety assertion.
	lookahead sim.Time
	winEnd    sim.Time

	machines []*Machine

	// Group outcome, decided at window barriers (multi-shard groups
	// never stop mid-window — which shard would observe the in-flight
	// count hit zero depends on thread schedule, not virtual time).
	completed  bool
	finishedAt sim.Time
	result     int64

	workers []shardWorker
	done    chan shardDone
	inbox   []xmsg // coordinator scratch for sorting one drain

	// Shard-local scenario replay. scn is the script expanded once at
	// construction and shared by every shard; ops is its firing-order
	// timeline, applied by the coordinator at window barriers landed
	// exactly on each op's scripted time (run clamps window ends to the
	// op cursor) — opIx cursors it. failed/live mirror the
	// shards' per-block failure state machine-wide; written only at
	// barriers, so mid-window reads (refuge selection, root redirects)
	// are race-free.
	scn    *scenario.Script
	ops    []scenario.Event
	opIx   int
	failed []bool
	live   int
}

// shardWorker is one shard's persistent goroutine: it runs its machine
// to each window end the coordinator sends.
type shardWorker struct {
	m     *Machine
	start chan sim.Time
}

// shardDone reports one shard's window completion; err carries a
// recovered panic for the coordinator to re-raise.
type shardDone struct {
	shard int
	err   any
}

// newShardGroup partitions the topology and builds the K shard
// machines. cfg must already be validated.
func newShardGroup(topo *topology.Topology, source JobSource, strat Strategy, cfg Config) *shardGroup {
	if so, ok := strat.(SequentialOnly); ok {
		panic("machine: strategy " + strat.Name() + " cannot run sharded: " + so.SequentialOnly())
	}
	k := cfg.Shards
	if k > topo.Size() {
		k = topo.Size()
	}
	part := topo.Partition(k)
	minHop := cfg.GoalHopTime
	if cfg.RespHopTime < minHop {
		minHop = cfg.RespHopTime
	}
	if cfg.CtrlHopTime < minHop {
		minHop = cfg.CtrlHopTime
	}
	g := &shardGroup{
		topo: topo,
		cfg:  cfg,
		part: part,
		k:    k,
		home: part.Assign[cfg.RootPE],
	}
	// Every channel can carry every message kind, so each channel's
	// guaranteed latency is the minimum hop time; the partition reduces
	// that over the boundary-crossing channels.
	if la, ok := part.MinCrossLatency(func(topology.Channel) int64 { return int64(minHop) }); ok {
		g.lookahead = sim.Time(la)
	} else {
		// No channel crosses a shard boundary (single-shard groups): any
		// window width is safe. Use the same width anyway so the
		// one-shard protocol run exercises the window machinery the
		// cross-checks certify.
		g.lookahead = minHop
	}
	// Expand the scenario once for the whole group; every shard shares
	// the result. Multi-shard groups also pre-sort the op timeline and
	// allocate the global failure map the shards consult mid-window.
	if !cfg.Scenario.Empty() {
		g.scn = cfg.Scenario.Expand(topo.Size(), cfg.MaxTime)
		if k > 1 {
			g.ops = g.scn.Sorted()
			g.failed = make([]bool, topo.Size())
			g.live = topo.Size()
		}
	}
	g.machines = make([]*Machine, k)
	for s := 0; s < k; s++ {
		g.machines[s] = newMachine(topo, source, strat, cfg, g, s)
	}
	// Stamp each shard's channel copies with the cross-shard member map:
	// which other shards hear a broadcast, and whether any local member
	// remains to hear it locally. Only the partition's cross-channel set
	// needs stamping — a shard-internal channel's zero state (nil
	// crossTo) already means "deliver locally only" — which keeps this
	// loop off the full channel list entirely: an implicit topology's
	// channels are enumerated per ID, never materialized.
	counts := make([]int, k)
	owners := make([]int, 0, k)
	var mbuf []int
	for _, ci := range part.Cross {
		for s := range counts {
			counts[s] = 0
		}
		owners = owners[:0]
		mbuf = topo.AppendChannelMembers(mbuf[:0], ci)
		for _, pe := range mbuf {
			s := part.Assign[pe]
			if counts[s] == 0 {
				owners = append(owners, s)
			}
			counts[s]++
		}
		sort.Ints(owners)
		for _, s := range owners {
			cs := g.machines[s].chanAt(ci)
			cs.localMembers = int32(counts[s])
			for _, o := range owners {
				if o != s {
					cs.crossTo = append(cs.crossTo, o)
				}
			}
		}
	}
	return g
}

// run executes the window-barrier loop to completion (or MaxTime) and
// returns the merged statistics.
func (g *shardGroup) run() *Stats {
	home := g.machines[g.home]
	serial := g.k == 1 || g.cfg.ShardSerial
	if !serial {
		// Warm the shared routing tables before goroutines race to the
		// same sync.Once, and start one persistent worker per shard.
		g.topo.Dist(0, 0)
		g.startWorkers()
		defer g.stopWorkers()
	}
	home.pump()
	maxT := g.cfg.MaxTime
	// start is the last executed instant; each window runs (start,
	// start+lookahead]. It begins at -1 — nothing, including time 0, has
	// executed — so the first window is [0, lookahead-1] and a send at
	// time u always lands at u+hop >= start+1+lookahead, strictly past
	// the window end: the conservative guarantee handOff asserts.
	start := sim.Time(-1)
	for {
		end := maxT
		if w := start + g.lookahead; w < maxT {
			end = w
		}
		// Park the barrier one tick short of the next scenario op's
		// scripted time: shrinking a window is always conservative, and
		// it lets the coordinator apply the op at its exact instant
		// BEFORE that instant's machine events fire — the ordering the
		// sequential engine produces, where ops are scheduled at
		// construction and so carry the lowest sequence numbers at
		// their timestamp. opAt marks an op-landing barrier (an empty
		// window when the op falls on start+1 — that just advances the
		// cursor).
		opAt := sim.Time(-1)
		if g.opIx < len(g.ops) {
			if at := g.ops[g.opIx].At; at > start && at <= end {
				end = at - 1
				opAt = at
			}
		}
		g.winEnd = end
		if serial {
			// The serial replay: same protocol, same per-window work,
			// shard by shard on this goroutine. Shards only interact
			// through the barriers, so this must be — and is, pinned by
			// cross-check — bit-for-bit the parallel result.
			for _, m := range g.machines {
				m.eng.RunUntil(end)
			}
		} else {
			g.runWindow(end)
		}
		if g.k == 1 && home.eng.Stopped() {
			// A single shard completes exactly like the sequential
			// machine: completeJob/pump stop the engine mid-window.
			break
		}
		if opAt >= 0 {
			// Every shard is quiescent at end = opAt-1: step the clocks
			// onto the op instant (no events fire — the earliest pending
			// ones are at opAt) and apply everything scripted there.
			for _, m := range g.machines {
				m.eng.AdvanceTo(opAt)
			}
			g.applyOps(opAt)
		}
		g.drain()
		if g.k > 1 && home.srcDone && atomic.LoadInt64(&g.inFlight) == 0 {
			// At a barrier every shard is quiescent, so the shared count
			// is exact: all injected jobs responded and no arrivals
			// remain. (In-flight control traffic may outlive completion,
			// exactly as on the sequential machine.)
			g.completed = true
			break
		}
		if end >= maxT {
			break
		}
		start = end
		// Fast-forward over windows no shard has events in: begin the
		// next window one unit before the globally earliest event or
		// not-yet-applied scenario op.
		if next, ok := g.nextPending(); !ok {
			start = maxT
		} else if next > start+1 {
			start = next - 1
		}
	}
	return g.finalize()
}

func (g *shardGroup) startWorkers() {
	g.done = make(chan shardDone, g.k)
	g.workers = make([]shardWorker, g.k)
	for s := range g.workers {
		g.workers[s] = shardWorker{m: g.machines[s], start: make(chan sim.Time, 1)}
		go g.workers[s].loop(g.done)
	}
}

func (g *shardGroup) stopWorkers() {
	for s := range g.workers {
		close(g.workers[s].start)
	}
}

func (w *shardWorker) loop(done chan<- shardDone) {
	for end := range w.start {
		err := w.runOne(end)
		done <- shardDone{shard: w.m.shardID, err: err}
		if err != nil {
			return
		}
	}
}

// runOne advances the shard to the window end, converting a panic into
// a value so the coordinator can finish the barrier before re-raising.
func (w *shardWorker) runOne(end sim.Time) (err any) {
	defer func() { err = recover() }()
	w.m.eng.RunUntil(end)
	return nil
}

// runWindow releases every worker for one window and waits for all of
// them — the barrier. A shard panic is re-raised here, after the
// barrier, so no worker is left mid-window.
func (g *shardGroup) runWindow(end sim.Time) {
	for s := range g.workers {
		g.workers[s].start <- end
	}
	var first any
	for i := 0; i < g.k; i++ {
		if d := <-g.done; d.err != nil && first == nil {
			first = d.err
		}
	}
	if first != nil {
		panic(first)
	}
}

// drain moves every cross-shard outbox into its receiving shard's
// engine, in a thread-schedule-independent total order: by delivery
// time, ties by sending shard, FIFO within a shard pair. Runs on the
// coordinator between windows, when all shards are quiescent.
func (g *shardGroup) drain() {
	for dstID, dst := range g.machines {
		buf := g.inbox[:0]
		for _, src := range g.machines {
			if src == dst {
				continue
			}
			q := src.xout[dstID]
			buf = append(buf, q...)
			for i := range q {
				q[i] = xmsg{}
			}
			src.xout[dstID] = q[:0]
		}
		// Stable insertion sort: windows are one lookahead wide, so the
		// per-window buffers are small and allocation-free beats O(n log n).
		for i := 1; i < len(buf); i++ {
			for j := i; j > 0 && buf[j].at < buf[j-1].at; j-- {
				buf[j], buf[j-1] = buf[j-1], buf[j]
			}
		}
		for _, x := range buf {
			// Deliver on the receiving shard's own copy of the channel,
			// whose reverse ports cover the receiver(s) there.
			x.w.m = dst
			x.w.ch = dst.chanAt(int(x.w.ch.id))
			dst.eng.AtAction(x.at, x.w)
		}
		g.inbox = buf
	}
}

// nextEvent returns the earliest pending event time across all shards.
func (g *shardGroup) nextEvent() (sim.Time, bool) {
	var min sim.Time
	ok := false
	for _, m := range g.machines {
		if t, has := m.eng.NextEventAt(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// nextPending is nextEvent extended with the scenario op cursor, so the
// fast-forward cannot jump past an op's scripted time — the next
// window's clamped end must still be able to park one tick short of it.
func (g *shardGroup) nextPending() (sim.Time, bool) {
	t, ok := g.nextEvent()
	if g.opIx < len(g.ops) {
		if at := g.ops[g.opIx].At; !ok || at < t {
			t, ok = at, true
		}
	}
	return t, ok
}

// applyOps applies every scenario op scripted at or before the op
// instant the barrier just advanced onto, in firing order, while all
// shards are quiescent and before that instant's machine events run.
// Ops run before drain so their sends (evacuations, availability
// broadcasts) are delivered with this barrier's batch.
func (g *shardGroup) applyOps(end sim.Time) {
	for g.opIx < len(g.ops) && g.ops[g.opIx].At <= end {
		g.applyOp(g.ops[g.opIx])
		g.opIx++
	}
}

// owner returns the machine owning PE id.
func (g *shardGroup) owner(id int) *Machine { return g.machines[g.part.Assign[id]] }

// applyOp routes one scenario op to the shards it affects: PE ops to
// the targets' owners, link ops to every shard's channel copies,
// checkpoint ticks and restore/recover-all sweeps to all shards, load
// shocks to the home shard (which owns the arrival process). Every
// shard's engine sits exactly at the barrier time, so the op applies at
// one consistent instant machine-wide.
func (g *shardGroup) applyOp(ev scenario.Event) {
	p := g.topo.Size()
	switch ev.Kind {
	case scenario.SlowPE:
		for _, id := range ev.Targets(p) {
			m := g.owner(id)
			m.setSpeed(m.pes[id], m.pes[id].nominalSpeed()*ev.Factor)
		}
	case scenario.RestorePE:
		targets := ev.Targets(p)
		if targets == nil {
			for _, m := range g.machines {
				for lx := range m.peBlock {
					pe := &m.peBlock[lx]
					if pe.Speed() != pe.nominalSpeed() {
						m.setSpeed(pe, pe.nominalSpeed())
					}
				}
			}
			return
		}
		for _, id := range targets {
			m := g.owner(id)
			m.setSpeed(m.pes[id], m.pes[id].nominalSpeed())
		}
	case scenario.FailPE:
		for _, id := range ev.Targets(p) {
			m := g.owner(id)
			m.failPE(m.pes[id])
		}
	case scenario.CrashPE:
		for _, id := range ev.Targets(p) {
			m := g.owner(id)
			m.crashPE(m.pes[id])
		}
	case scenario.RecoverPE:
		targets := ev.Targets(p)
		if targets == nil {
			for _, m := range g.machines {
				for lx := range m.peBlock {
					if m.peFailed[lx] {
						m.recoverPE(&m.peBlock[lx])
					}
				}
			}
			return
		}
		for _, id := range targets {
			m := g.owner(id)
			m.recoverPE(m.pes[id])
		}
	case scenario.DegradeLink:
		g.applyLink(ev.A, ev.B, ev.Factor, ev.Factor == 0, false)
	case scenario.RestoreLink:
		g.applyLink(ev.A, ev.B, 0, false, true)
	case scenario.LoadShock:
		g.machines[g.home].rateMul = ev.Factor
	case scenario.CheckpointTick:
		for _, m := range g.machines {
			m.checkpointTick(ev.Cost)
		}
		// Eager snapshot: record every live job's position as of this
		// barrier. The sequential machine snapshots lazily on the next
		// goal finish, but here several shards advance one job's
		// progress inside a window — only the barrier gives one
		// consistent, schedule-independent instant. The home machine's
		// registry is compacted in the same walk: completed or abandoned
		// jobs were freed (nil tree) and recycled structs were
		// re-appended, so dead entries just drop.
		home := g.machines[g.home]
		now := home.eng.Now()
		live := home.liveJobs[:0]
		for _, j := range home.liveJobs {
			if j.tree == nil {
				continue
			}
			j.ckptProgress = atomic.LoadInt64(&j.progress)
			j.ckptSeen = now
			live = append(live, j)
		}
		for i := len(live); i < len(home.liveJobs); i++ {
			home.liveJobs[i] = nil
		}
		home.liveJobs = live
	}
}

// applyLink applies a link event group-wide: every shard mutates its
// own copies of the affected channels (a bus channel's members can span
// shards beyond the named endpoints), and the endpoint owners notify
// their FailureAware nodes on the same down/up transition the
// sequential machine notifies on.
func (g *shardGroup) applyLink(a, b int, factor float64, down, restore bool) {
	wasDown := false
	for _, m := range g.machines {
		var w bool
		if restore {
			w = m.restoreLinkState(a, b)
		} else {
			w = m.setLinkState(a, b, factor, down)
		}
		if w {
			wasDown = true
		}
	}
	var kind EventKind
	switch {
	case restore && wasDown, !restore && !down && wasDown:
		kind = LinkRestored
	case !restore && down && !wasDown:
		kind = LinkDown
	default:
		return
	}
	g.owner(a).notifyEndpoint(a, b, kind)
	g.owner(b).notifyEndpoint(b, a, kind)
}

// stalled is the group form of Machine.stalled: jobs in flight with no
// goal or response anywhere — queued, executing, or in transit on any
// shard. Transit counters increment on the sending shard and decrement
// on the receiving one, so only their sum is meaningful.
func (g *shardGroup) stalled() bool {
	if g.completed || atomic.LoadInt64(&g.inFlight) == 0 || !g.machines[g.home].srcDone {
		return false
	}
	var transit int64
	for _, m := range g.machines {
		transit += m.goalsInTransit + m.respsInTransit + m.retryPending
	}
	if transit != 0 {
		return false
	}
	for _, m := range g.machines {
		for i := range m.peBusy {
			if m.peBusy[i] || m.peBlock[i].queueLen() > 0 {
				return false
			}
		}
	}
	return true
}

// finalize merges the shards' statistics into shard 0's Stats and
// applies the group-level outcome.
func (g *shardGroup) finalize() *Stats {
	root := g.machines[0]
	if g.k == 1 {
		// The single shard carried the whole outcome itself.
		root.finalize()
		return root.stats
	}
	if g.completed {
		// Deterministic finish rule: the last completion, ties resolved
		// toward the higher shard (within one shard, engine order already
		// picked the later completion's result).
		fin := sim.Time(-1)
		for _, m := range g.machines {
			if m.stats.JobsDone > 0 && m.lastDone >= fin {
				fin = m.lastDone
				g.result = m.result
			}
		}
		g.finishedAt = fin
	}
	for _, m := range g.machines {
		m.completed = g.completed
		m.finishedAt = g.finishedAt
		m.finalize()
	}
	s := root.stats
	for _, m := range g.machines[1:] {
		s.merge(m.stats)
	}
	g.mergeSamples(s)
	g.mergeInjSoj(s)
	g.replayTrace()
	s.Completed = g.completed
	s.Result = g.result
	if g.completed {
		s.Makespan = g.finishedAt
	}
	s.Stalled = g.stalled()
	// Per-shard completion order interleaves; restore global completion
	// order, then re-apply the record cap the per-shard streams enforced
	// individually.
	sort.Slice(s.JobRecords, func(i, j int) bool {
		a, b := s.JobRecords[i], s.JobRecords[j]
		if a.DoneAt != b.DoneAt {
			return a.DoneAt < b.DoneAt
		}
		return a.ID < b.ID
	})
	if b := g.cfg.SojournBound; b > 0 && len(s.JobRecords) > b {
		s.JobRecords = s.JobRecords[:b]
	}
	return s
}

// mergeSamples folds the shards' deferred sampling partials into the
// merged statistics' full-machine series. Every shard sampled its own
// PE block at the same instants (the observer stagger phase draws from
// the plain seed on every shard), so the streams align index by index;
// divergence would mean the synchronization contract broke, which is a
// bug worth crashing on, not papering over. The folded formulas are
// exactly the sequential machine's, applied to the pooled partials.
func (g *shardGroup) mergeSamples(s *Stats) {
	if g.cfg.SampleInterval <= 0 {
		return
	}
	ref := g.machines[0].shardSamples
	for _, m := range g.machines[1:] {
		if len(m.shardSamples) != len(ref) {
			panic("machine: shard sample streams diverged in length — sample instants must be globally synchronized")
		}
	}
	p := float64(g.topo.Size())
	var frame []float64
	if g.cfg.MonitorPE {
		frame = make([]float64, g.topo.Size())
	}
	var sojs []float64
	for i, r := range ref {
		var busyDelta sim.Time
		var qsum, qsq float64
		sojs = sojs[:0]
		for _, m := range g.machines {
			sp := m.shardSamples[i]
			if sp.at != r.at || sp.window != r.window {
				panic("machine: shard sample instants diverged — sample instants must be globally synchronized")
			}
			busyDelta += sp.busyDelta
			qsum += sp.qsum
			qsq += sp.qsq
			if frame != nil {
				copy(frame[m.peLo:m.peHi], sp.frame)
			}
			sojs = append(sojs, sp.soj...)
		}
		s.Timeline.Add(float64(r.at), 100*float64(busyDelta)/(float64(r.window)*p))
		if frame != nil {
			s.Monitor.Append(r.at, frame)
		}
		s.QueueLen.Add(float64(r.at), qsum/p)
		imb := 1.0
		if qsq > 0 {
			imb = qsum * qsum / (p * qsq)
		}
		s.QueueImbalance.Add(float64(r.at), imb)
		// Windowed sojourn p99 (scenario runs): the pooled sojourns of
		// all shards' completions inside the window, the same formula
		// and warm-up drop as the sequential machine's sample().
		if len(sojs) > 0 && r.at >= g.cfg.Warmup {
			sort.Float64s(sojs)
			rank := int(math.Ceil(0.99*float64(len(sojs)))) - 1
			if rank < 0 {
				rank = 0
			}
			s.SojournWindows.Add(float64(r.at), sojs[rank])
		}
	}
}

// mergeInjSoj folds the shards' injection-keyed raw sojourn buckets
// into the merged InjSojournWindows series. Shards thin their buckets
// independently (SeriesBound), so strides can differ; every stride is a
// power of two, so re-bucketing to the widest one only concatenates —
// each pooled bucket holds exactly the sojourns of jobs injected in its
// window, and the finalized percentiles stay exact on the common grid.
func (g *shardGroup) mergeInjSoj(s *Stats) {
	if g.cfg.SampleInterval <= 0 || g.machines[0].injSoj == nil {
		return
	}
	stride := 1
	for _, m := range g.machines {
		if m.injStride > stride {
			stride = m.injStride
		}
	}
	var pooled [][]float64
	for _, m := range g.machines {
		f := stride / m.injStride
		for w, sojs := range m.injSoj {
			if len(sojs) == 0 {
				continue
			}
			cw := w / f
			for len(pooled) <= cw {
				pooled = append(pooled, nil)
			}
			pooled[cw] = append(pooled[cw], sojs...)
		}
	}
	if b := g.cfg.SeriesBound; b > 0 {
		for len(pooled) > b {
			half := (len(pooled) + 1) / 2
			for i := 0; i < half; i++ {
				merged := pooled[2*i]
				if 2*i+1 < len(pooled) {
					merged = append(merged, pooled[2*i+1]...)
				}
				pooled[i] = merged
			}
			pooled = pooled[:half]
			stride *= 2
		}
	}
	for w, sojs := range pooled {
		if len(sojs) == 0 {
			continue
		}
		end := sim.Time(w+1) * g.cfg.SampleInterval * sim.Time(stride)
		if end <= g.cfg.Warmup {
			continue
		}
		sort.Float64s(sojs)
		rank := int(math.Ceil(0.99*float64(len(sojs)))) - 1
		if rank < 0 {
			rank = 0
		}
		s.InjSojournWindows.Add(float64(end), sojs[rank])
	}
}

// replayTrace replays the shards' buffered trace events into the Sink
// in a thread-schedule-independent total order: by event time, ties by
// shard, FIFO within one shard's buffer. Runs on the coordinator after
// the workers have torn down, so the Sink keeps its single-goroutine
// contract.
func (g *shardGroup) replayTrace() {
	if g.cfg.Trace == nil {
		return
	}
	type tagged struct {
		ev    trace.Event
		shard int
		seq   int
	}
	total := 0
	for _, m := range g.machines {
		total += len(m.traceBuf)
	}
	all := make([]tagged, 0, total)
	for sh, m := range g.machines {
		for i, ev := range m.traceBuf {
			all = append(all, tagged{ev: ev, shard: sh, seq: i})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ev.At != b.ev.At {
			return a.ev.At < b.ev.At
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.seq < b.seq
	})
	if c := g.machines[0].traceCollector; c != nil {
		c.Grow(total)
	}
	for _, t := range all {
		g.cfg.Trace.Record(t.ev)
	}
}
