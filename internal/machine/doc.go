// Package machine is the multiprocessor model — the Go equivalent of
// ORACLE, the simulator the paper's experiments ran on. It simulates a
// message-passing machine: processing elements (PEs) that serve one
// message at a time from a FIFO ready queue, and communication channels
// (point-to-point links or multi-drop buses) that carry one message at a
// time, so both compute and communication contention are modelled.
//
// # Job-stream lifecycle
//
// Work enters the machine as jobs: root goals injected by a JobSource
// over virtual time. The paper's closed-system experiment — one tree
// injected at time zero, machine drains, makespan measured — is the
// trivial SingleJob source (machine.New builds it directly). Open-system
// runs use NewStream with a fixed-interval, Poisson or bursty source:
// arrivals are pulled lazily, each job's root goal is accepted at
// Config.RootPE, and the run completes when the source is exhausted and
// every job has delivered its root response. An overloaded stream that
// reaches Config.MaxTime with jobs still in flight is the saturation
// regime, reported via Stats rather than treated as a failure.
//
// Per job, the machine records a JobRecord — injection time, completion
// time, result — from which Stats derives sojourn-time distributions
// (mean/p50/p99 via metrics.Sample), throughput, and steady-state
// utilization with the ramp-up before Config.Warmup excluded.
// Determinism is preserved: arrival randomness draws from a dedicated
// stream derived from the run seed, disjoint from the engine's
// tie-breaking stream, so single-job runs reproduce the paper's event
// sequences bit for bit and equal seeds give identical streams.
//
// # Computation model
//
// The computation model follows Section 2 of the paper: a goal executes
// for a grain time and either completes (sending a response to its
// parent's PE) or spawns sub-goals and waits for their responses; a task
// never migrates after spawning. Where each new goal executes is decided
// by a pluggable Strategy (package core provides CWN, the Gradient Model
// and several baselines). As the paper assumes, a communication
// co-processor performs routing and load-balancing work, so strategy
// decisions consume channel time but no PE compute time.
//
// # Event-driven strategy API
//
// A Strategy supplies one NodeStrategy per PE, and the machine drives
// each node through a typed event stream (NodeStrategy.HandleEvent):
// GoalCreated asks for a placement decision, GoalArrived delivers a
// goal message, Control delivers strategy control payloads. Scenario
// runs add environment events — PEFailed/PERecovered ride the failing
// PE's immediate sentinel-load broadcast to its neighbors (charged
// channel time like any load word), LinkDown/LinkRestored are sensed
// locally by the link's endpoints, PESlowed tells a node its own clock
// changed, and NeighborLoadChanged mirrors every load-table update.
// Environment delivery is strictly opt-in through the FailureAware/
// SpeedAware/LoadAware capability interfaces, resolved once per node at
// construction: strategies that ignore the environment behave — and
// cost — exactly as a sentinel-only implementation. Code written
// against the pre-event three-method shape (ClassicNodeStrategy) keeps
// working through AdaptNode/Adapt, bit-for-bit (pinned by regression
// test).
//
// A PE's "load" is the number of messages waiting in its ready queue —
// the paper's measure — optionally augmented with the count of tasks
// awaiting responses (the "future commitments" refinement from the
// paper's conclusions). Load information travels to neighbors through
// periodic short broadcasts and, optionally, piggybacked on every
// regular message.
//
// # Dynamic environments
//
// Config.Scenario attaches a scripted timeline of perturbations
// (internal/scenario) that the machine replays at their virtual times:
// PE speed changes rescale in-flight service proportionally; a PE
// failure is a compute blackout — service stops, the in-service goal
// aborts and queued goals evacuate to the nearest live PE, arriving
// goals redirect, responses and pending tasks freeze in place until
// recovery, while the communication co-processor stays up and the PE
// advertises a sentinel load that steers strategies away; channels
// degrade (occupancy stretched) or go down entirely (messages hold at
// the sender and flush in order on restore); and load shocks multiply
// the arrival process's offered rate. Scenario accounting lands in
// Stats (GoalsRequeued, ServiceAborts, DownPETime, the queue-imbalance
// and windowed-p99 series) and an empty scenario leaves runs
// bit-for-bit identical to unscripted ones.
//
// A crash (the scenario `crash:` op) is the state-loss failure the
// blackout is not: the PE's queued and in-flight goals, queued
// responses and pending tasks are destroyed. Each job that lost state
// aborts — an attempt-epoch bump instantly stales its surviving goals
// machine-wide, which the machine discards wherever they surface — and
// is re-injected, keeping its original injection time so sojourn
// statistics bill the failed attempt. With periodic checkpoints
// scripted (the `checkpoint:` op), the retry resumes from the job's
// durable frontier — goals re-derived below the snapshot run at replay
// cost instead of full grain time — and every live PE pays the
// scripted snapshot cost at each tick (busy PEs extend their in-flight
// service, idle PEs accrue debt paid at the next service start). A
// positive Config.RetryLimit bounds the budget: each abort beyond it
// abandons the job for good instead of re-injecting (optionally after
// an attempt-scaled Config.RetryBackoff delay), and Stats.Goodput
// prices the loss. The accounting lands in Stats.GoalsLost/JobsAborted
// /JobsRetried/JobsAbandoned with the machine-wide invariant
// JobsRetried + JobsAbandoned == JobsAborted. Chaos generator events —
// including the correlated rack/block failure-domain modes — expand
// into concrete deterministic failure timelines at machine
// construction (ScenarioScript exposes the expanded script).
//
// Sweeps replicating one configuration across seeds can hand sequential
// machines a shared Pool (Config.Pool): the per-run free lists — wire
// messages, goals, pending tasks, job states, pending-slab slot arrays
// — carry over, cutting steady-state allocation without touching
// results.
//
// # Hot path
//
// The per-goal path is hash-free end to end: a PE indexes its pending
// tasks in an open-addressed slab keyed by goal ID (pendingslab.go —
// sequential IDs make the low bits a perfect hash), ready queues are
// ring buffers, and every transient object (wire messages, goals,
// pending tasks, job states) recycles through slice-stack free lists.
// The engine underneath runs the two-tier wheel scheduler by default
// (Config.Scheduler, internal/sim); both knobs are A/B-measurable
// through the perf ledger (cmd/bench). The free-list discipline —
// pointer fields zeroed on free, no touching an object after its
// free-list put — is machine-checked: pooled types carry
// //simlint:pooled and free functions //simlint:free, and the poolsafe
// analyzer (internal/analysis, run by CI as cmd/simlint) enforces both
// rules at vet time.
//
// The load-word path does no neighbor search. At construction the
// machine builds a reverse-port table: for every stored channel and
// every ordered (sender, receiver) pair of its members, the receiver's
// flat index into the per-neighbor load views, or -1 when another
// shard owns the receiver or the receiver does not count the sender as
// a neighbor. Every load word — the periodic broadcast, the
// availability (env) broadcast and the load piggybacked on goal,
// response and control hops — is recorded through that table.
// PE.nbrIdx, a binary search of the sorted neighbor row, remains only
// behind the public KnownLoad and the table build.
//
// A broadcast occupies every attached channel exactly as separate
// transmissions would, but the transmissions that end at the same
// instant and deliver on this shard share one pooled wire message and
// so one engine event, which walks them in channel order. A
// transmission held at a downed channel, and each copy handed to
// another shard, is a message of its own. The grouping keeps the event
// order: one broadcast's events take consecutive engine sequence
// numbers, so deliveries at one instant are adjacent in (time,
// sequence) order and nothing can run between them. A grouped event
// credits the engine with one processed event per channel it delivered
// (sim.Engine.Credit), and stops where the engine stops, so
// Stats.Events, message counts and channel busy time are unchanged.
//
// # Memory layout
//
// The layout is built for million-PE machines (the ledger's
// open/poisson-torus1000 case runs 1,000,000 PEs in well under 2 GB of
// heap); the bench footprint gate holds construction to its per-PE
// budget. Four decisions carry it:
//
// Struct-of-arrays hot state. The per-event PE fields — busy, failed,
// remaining-service end, accrued busy time, speed — live in parallel
// slices on the Machine (peBusy, peFailed, peServiceEnd, peBusyTime,
// peSpeed), indexed by the PE's local index (PE.lx). An event touching
// a thousand PEs walks flat arrays instead of dereferencing a thousand
// structs; the speed slice is nil for homogeneous machines. The PE
// struct keeps the cold and per-PE-shaped state (ready ring, pending
// slab, neighbor views), and the structs themselves sit in one
// contiguous block (peBlock), not a million singleton allocations.
//
// Flat adjacency. Neighbor lists, per-neighbor load views and channel
// membership are capacity-capped subslices of shared flat backings
// (CSR form), so per-PE adjacency costs array bytes, not slice-header
// garbage and pointer-chased little arrays. Channel states are a value
// slice (chans []chanState) that never grows, so interior *chanState
// pointers stay valid for the life of the run. Message delivery finds
// the receiver's neighbor slot through the reverse-port table (see Hot
// path); the one remaining lookup, KnownLoad, binary searches the
// sorted neighbor list — no per-PE map.
//
// Arena chunks. Free-list misses for goals, wire messages, pending
// tasks, job states (machine.go) and events (internal/sim) carve from
// chunked arenas (arenaChunk objects at a time) instead of allocating
// singletons: the retained working set is a few contiguous blocks the
// garbage collector marks cheaply, and a carved object is a zero value
// exactly like the allocation it replaces, so results are unaffected.
// Timers and the per-PE load tickers embed by value (sim.Timer.Init,
// sim.Ticker.Init) in machine-owned blocks for the same reason.
//
// Implicit topologies. Machines past 65536 PEs promote to the
// computed-neighbor topology form (internal/topology, experiments
// TopoSpec.Implicit) — adjacency is index arithmetic, no stored edge
// lists — which the machine consumes through the same append-style
// accessors it uses to build its flat backings.
//
// # Sharded execution
//
// Config.Shards > 0 runs the machine as K spatial shards — contiguous
// PE blocks from topology.Partition, each a full sub-machine with its
// own event engine, free lists and statistics. For K >= 2, shard 0
// runs on the caller's goroutine and each other shard on a persistent
// worker goroutine. Per-shard channel state is sparse (chanIdx/
// chanAt): a shard stores chanState only for channels its own PEs
// attach to — every transmit, broadcast and link op resolves at the
// sending side — so a K-shard million-PE machine stays near the
// sequential footprint instead of paying K full channel arrays. Synchronization is conservative lookahead in the
// Chandy-Misra-Bryant tradition, run as a barrier-per-window loop: the
// window width is the minimum wire latency on any channel crossing a
// shard boundary, so no message sent inside a window can be due before
// the next one begins. Every shard therefore always holds its complete
// event set for the window it executes — no rollbacks, no null
// messages. The barrier itself (barrier.go) keeps the cores hot:
// the coordinator publishes the window end and bumps an atomic epoch,
// each worker runs its window and counts down an atomic pending count,
// and a waiter on either side spins a fixed number of iterations
// (yielding its P now and then) before it parks on a channel. Waiters
// park at once while the process holds more shard goroutines, over all
// its parallel sharded runs, than GOMAXPROCS: a spin pays only when the
// shard it waits for holds a P of its own. A panic in a window is
// recovered per shard; once every shard has reached the barrier the
// coordinator re-raises the lowest shard's panic, so which panic
// surfaces does not depend on the thread schedule, and the workers exit
// as Run unwinds. Between windows the single-threaded coordinator
// drains the per-shard-pair outboxes into the receiving engines in a
// fixed total order (delivery time, then sending shard, then FIFO),
// fast-forwards over windows no shard has events in, and checks
// completion; at
// finalize the per-shard Stats merge into one (counters sum, per-PE
// arrays concatenate, distributions merge exactly).
//
// The determinism contract, pinned by cross-check tests and the
// cmd/bench gate: Shards == 1 reproduces the sequential machine bit
// for bit; Shards >= 2 is a pure function of (seed, shard count) —
// a parallel run equals its single-goroutine serial replay
// (Config.ShardSerial) bit for bit, so the thread schedule cannot
// leak into results — but orders same-timestamp cross-shard events
// differently than the sequential machine and draws per-shard RNG
// streams, so against sequential only conservation holds: completion,
// the computed result, goal/response/job totals and the sojourn count.
// Crash scripts narrow that last clause further: which goals a crash
// destroys depends on placement, so at K >= 2 even the execution
// totals legitimately differ from sequential and the cross-check
// (experiments.ScenarioCrossCheck) instead pins the retry-ledger
// invariants and the placement-independent injection stream.
//
// Observability is shard-safe: sampling (SampleInterval, MonitorPE)
// and tracing (Trace) run under any shard count with a per-shard
// capture / deterministic merge discipline. Every shard's observer
// ticker draws its phase from the plain run seed, so sample instants
// are globally synchronized; each shard records raw partials for its
// own PE block (busy-time deltas, queue-length sums and sums of
// squares, monitor frames) and finalize folds them into the merged
// Stats with the sequential machine's exact arithmetic — Jain's
// imbalance index is recomputed from the pooled raw sums because it
// does not merge from per-shard indices. Trace events buffer per shard
// and replay into the configured sink on the coordinator after the
// workers join, sorted by (time, shard, emission order), preserving
// the Sink single-goroutine contract. Shards == 1 reproduces the
// sequential series and event stream bit for bit; K >= 2 keeps the
// parallel == serial-replay guarantee and conserves per-kind event
// counts for placement-independent kinds against sequential.
//
// Scenario replay is shard-safe under an ops-first barrier discipline.
// The script expands once at construction (chaos draws included, from
// the plain run seed, so the timeline is identical under any shard
// count), and the coordinator owns it: each window barrier is clamped
// one tick short of the next scripted op's instant, so no shard ever
// executes past an op before it applies. At the barrier the
// coordinator steps every quiescent shard engine onto the instant
// (sim.Engine.AdvanceTo) and applies the op to the owning shards in
// shard order — before that instant's machine events fire, exactly the
// ordering the sequential machine's scenario timer produces. Ops whose
// scope is global (load shocks, checkpoint ticks, crash aborts purging
// a job machine-wide) walk all shards in shard order from the
// coordinator, which is single-threaded between windows, so no locks
// are involved. Recovery accounting (windowed p99 series, abort/retry/
// abandon counters, down-PE time) records per shard and folds through
// the same merge discipline as the observer state above.
//
// One global-state feature remains sequential-only (Config.validate
// rejects the combination): Pool, whose cross-run free lists are
// single-threaded by design. Strategies whose correctness needs a
// single global timeline declare it via SequentialOnly (core's
// ORACLE/ideal baseline does), which sharded construction refuses
// with the strategy's stated reason. The boundary is machine-checked
// by internal/analysis: statsmerge proves every Stats field is either
// folded by the shard merge or tagged //simlint:nomerge with a reason,
// and seqonly walks the call graph rooted at shard.go
// (//simlint:seqonly) flagging unguarded reaches into the
// //simlint:globalstate Config fields.
package machine
