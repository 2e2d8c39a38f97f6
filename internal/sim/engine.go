package sim

import (
	"fmt"
	"math/rand"
)

// Time is virtual simulation time in abstract integer units. The paper
// charges integral "units" for primitive operations (e.g. the gradient
// process interval is 20 units), so integer time loses nothing and keeps
// event ordering exact.
type Time int64

// Never is a sentinel meaning "no deadline".
const Never Time = -1

// Event is a handle to a scheduled closure. It can be cancelled up to the
// moment it fires. Pooled events (ScheduleAction/AtAction) are recycled
// through the engine free list after firing.
//
//simlint:pooled
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	act      Action
	canceled bool
	pooled   bool // owned by the engine free list; recycled after firing
	// index locates the event inside its scheduler: a position >= 0 in
	// the overflow/standing heap, idxWheel while chained in a wheel
	// slot, idxIdle when not scheduled.
	index int
	// next/prev chain the event into a wheel slot's FIFO (two-tier
	// scheduler only; nil under the heap scheduler).
	next, prev *Event
}

const (
	// idxIdle marks an event that is not scheduled anywhere.
	idxIdle = -1
	// idxWheel marks an event chained in a bucket-wheel slot.
	idxWheel = -2

	// eventChunkSize is the arena granularity for pooled events: the
	// free-list miss path carves events out of chunks this large. The
	// steady-state pooled population is roughly the peak number of
	// simultaneously scheduled actions, so 256 keeps small runs to one
	// or two chunks while a saturated million-PE run fills whole chunks
	// back to back.
	eventChunkSize = 256
)

// Action is a schedulable behavior: the allocation-free alternative to a
// closure. Hot-path callers embed their state in a value implementing
// Action and hand it to ScheduleAction/AtAction; the engine recycles the
// backing Event through an internal free list. No handle is returned, so
// a recycled Event can never be reached through a stale *Event — pooled
// events are therefore uncancellable by construction.
type Action interface{ Act() }

// At reports the virtual time the event is scheduled for.
func (ev *Event) At() Time { return ev.at }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (ev *Event) Cancel() {
	ev.canceled = true
}

// Canceled reports whether Cancel was called.
func (ev *Event) Canceled() bool { return ev.canceled }

// SchedulerKind selects the engine's pending-event structure. Both
// implementations order events identically — by (time, insertion
// sequence) — so the choice affects only performance: equal seeds yield
// bit-for-bit identical simulations under either scheduler (pinned by
// cross-check tests). The A/B lives in the perf ledger's sched-two-tier
// section; re-measure with cmd/bench before changing the default.
type SchedulerKind uint8

const (
	// SchedWheel is the two-tier scheduler: a rotating near-future
	// bucket wheel (O(1) amortized push/pop for events within wheelSpan
	// of the clock) backed by an overflow heap for far-future events
	// that drains into the wheel as time advances. The default (and the
	// zero value): it measured 1.8-3.4x the heap's events/sec across
	// the whole ledger matrix — see the sched-two-tier section.
	SchedWheel SchedulerKind = iota
	// SchedHeap is the indexed binary min-heap: O(log n) per operation,
	// no window assumptions, no standing slot memory. Kept selectable
	// for re-measurement and for workloads sparse enough in time that
	// stepping empty wheel slots could dominate.
	SchedHeap
)

func (k SchedulerKind) String() string {
	switch k {
	case SchedHeap:
		return "heap"
	case SchedWheel:
		return "wheel"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", uint8(k))
	}
}

// scheduler is the pending-event set. Implementations must return
// events in (at, seq) order from pop/peek; pop may surface cancelled
// events (the engine skips them), peek must not.
type scheduler interface {
	push(ev *Event)
	pop() *Event
	peek() *Event
	remove(ev *Event)
	size() int
}

// Engine is a discrete-event simulator instance.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now       Time
	seq       uint64
	sched     scheduler
	kind      SchedulerKind
	free      []*Event // recycled pooled events (ScheduleAction/AtAction)
	chunk     []Event  // arena tail: pooled events are carved from here on free-list miss
	rng       *rand.Rand
	seed      int64
	stopped   bool
	processed uint64
}

// NewEngine returns an engine with the clock at zero whose random stream
// is derived from seed, using the default (two-tier wheel) scheduler.
// Equal seeds yield byte-identical simulations.
func NewEngine(seed int64) *Engine {
	return NewEngineSched(seed, SchedWheel)
}

// NewEngineSched is NewEngine with an explicit scheduler selection.
// Event ordering — and therefore every simulation result — is identical
// across kinds; only the cost profile differs.
func NewEngineSched(seed int64, kind SchedulerKind) *Engine {
	var sched scheduler
	switch kind {
	case SchedHeap:
		sched = &eventHeap{}
	case SchedWheel:
		sched = newWheelSched()
	default:
		panic(fmt.Sprintf("sim: unknown scheduler kind %d", kind))
	}
	return &Engine{
		sched: sched,
		kind:  kind,
		rng:   rand.New(rand.NewSource(seed)),
		seed:  seed,
	}
}

// Scheduler returns the engine's scheduler kind.
func (e *Engine) Scheduler() SchedulerKind { return e.kind }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was constructed with.
func (e *Engine) Seed() int64 { return e.seed }

// Rng returns the engine's deterministic random stream. All stochastic
// choices in a simulation (tie-breaks, phase staggering) must draw from
// this stream so that a run is a pure function of its seed.
func (e *Engine) Rng() *rand.Rand { return e.rng }

// Processed returns the number of simulated deliveries made so far:
// one per fired event, plus whatever the fired actions credited
// through Credit. An action that delivers several channel transmissions
// in one event (the machine's grouped broadcasts) counts once per
// transmission, so the count is the same as if each transmission had
// been its own event.
func (e *Engine) Processed() uint64 { return e.processed }

// Credit adds n deliveries to Processed on behalf of the running
// action: an action that stands for 1+n simulated deliveries fires as
// one event and credits the other n.
func (e *Engine) Credit(n uint64) { e.processed += n }

// Pending returns the number of events currently scheduled (including
// cancelled events not yet discarded).
func (e *Engine) Pending() int { return e.sched.size() }

// Schedule runs fn after delay units of virtual time. A negative delay
// panics: the past is immutable in a discrete-event simulation.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %d at t=%d", delay, e.now))
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t (t must not precede Now).
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%d) before now=%d", t, e.now))
	}
	if fn == nil {
		panic("sim: At with nil fn")
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.sched.push(ev)
	return ev
}

// ScheduleAction runs a.Act() after delay units of virtual time. It is
// the pooled, closure-free analogue of Schedule: no Event handle is
// returned and the backing Event is recycled after firing.
func (e *Engine) ScheduleAction(delay Time, a Action) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleAction with negative delay %d at t=%d", delay, e.now))
	}
	e.AtAction(e.now+delay, a)
}

// AtAction runs a.Act() at absolute virtual time t (t must not precede
// Now). See ScheduleAction.
func (e *Engine) AtAction(t Time, a Action) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AtAction(%d) before now=%d", t, e.now))
	}
	if a == nil {
		panic("sim: AtAction with nil Action")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		// Free-list miss: carve the next event from the arena chunk
		// instead of allocating a singleton, so the steady-state event
		// population sits in a handful of contiguous blocks rather than
		// scattered across the heap. A carved event is a zero value,
		// exactly like the &Event{} it replaces.
		if len(e.chunk) == 0 {
			e.chunk = make([]Event, eventChunkSize)
		}
		ev = &e.chunk[0]
		e.chunk = e.chunk[1:]
	}
	ev.at, ev.seq, ev.act, ev.pooled = t, e.seq, a, true
	e.seq++
	e.sched.push(ev)
}

// recycle returns a pooled event to the free list. The scheduler has
// already unlinked the event (next/prev are nil after a wheel pop), but
// they are re-zeroed here so the free list never pins a dead chain
// regardless of scheduler.
//
//simlint:free
func (e *Engine) recycle(ev *Event) {
	ev.fn, ev.act, ev.canceled, ev.pooled = nil, nil, false, false
	ev.next, ev.prev = nil, nil
	e.free = append(e.free, ev)
}

// Step fires the single next event. It returns false when no events
// remain or the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	for {
		ev := e.sched.pop()
		if ev == nil {
			return false
		}
		if ev.canceled {
			if ev.pooled {
				e.recycle(ev)
			}
			continue
		}
		if ev.at < e.now {
			panic("sim: event heap returned an event from the past")
		}
		e.now = ev.at
		e.processed++
		// Copy the behavior out and recycle before firing, so a handler
		// that schedules new actions reuses this very Event.
		fn, act := ev.fn, ev.act
		if ev.pooled {
			e.recycle(ev)
		}
		if act != nil {
			act.Act()
		} else {
			fn()
		}
		return true
	}
}

// Run fires events until none remain or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then sets the clock
// to deadline (if it has not passed it already). It returns true if live
// (uncancelled) events remain pending afterwards — whether they lie
// beyond the deadline or Stop froze the run with work outstanding; use
// Stopped to distinguish. When Stop fires mid-run the clock stays at the
// stopping event's time rather than jumping to the deadline.
func (e *Engine) RunUntil(deadline Time) bool {
	for {
		if e.stopped {
			return e.sched.peek() != nil
		}
		ev := e.sched.peek()
		if ev == nil {
			if e.now < deadline {
				e.now = deadline
			}
			return false
		}
		if ev.at > deadline {
			if e.now < deadline {
				e.now = deadline
			}
			return true
		}
		e.Step()
	}
}

// AdvanceTo moves the clock forward to t without firing anything. It
// panics on a rewind or when an event strictly earlier than t is still
// pending — advancing past it would fire it in the past. The sharded
// machine's coordinator uses this at window barriers to park every
// quiescent shard exactly on a scenario op's scripted instant before
// applying the op, reproducing the sequential engine's ordering (ops
// are scheduled at construction, so they fire before the machine
// events sharing their timestamp).
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic("sim: AdvanceTo would rewind the clock")
	}
	if ev := e.sched.peek(); ev != nil && ev.at < t {
		panic("sim: AdvanceTo would skip a pending event")
	}
	e.now = t
}

// NextEventAt returns the timestamp of the earliest pending live
// (uncancelled) event; ok is false when nothing is pending or the
// engine is stopped. Windowed drivers (the sharded machine's
// conservative-lookahead loop) use it to fast-forward across windows
// no shard has work in.
func (e *Engine) NextEventAt() (t Time, ok bool) {
	if e.stopped {
		return 0, false
	}
	ev := e.sched.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Stop halts Run/RunUntil after the current event. Further Step calls
// return false. Pending events are retained (inspectable) but will not
// fire.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }
