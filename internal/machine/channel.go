package machine

import (
	"fmt"
	"math/bits"

	"cwnsim/internal/sim"
)

// chanState models one communication channel (link or bus) as a serial
// FIFO server: exactly one message occupies the channel at a time;
// requests queue in arrival order. This mirrors ORACLE's "one process
// per communication channel" contention model without materializing a
// queue — because service is FIFO and non-preemptive, tracking the time
// the channel frees up is sufficient.
//
// Channel states are stored by value in Machine.chans — one contiguous
// slice whose addresses stay stable (it never grows after construction)
// — with members a subslice of one flat backing array, so a million-PE
// machine's two million channels cost three allocations, not two
// million scattered ones.
type chanState struct {
	members   []int
	busyUntil sim.Time
	busyTotal sim.Time // scheduled occupancy, including not-yet-elapsed tail
	messages  int64

	// Scenario state. degrade multiplies occupancy durations (0 =
	// nominal, the untouched fast path). down marks a full outage:
	// messages hold at the channel in arrival order and flush when the
	// link is restored.
	degrade float64
	down    bool
	held    []heldMsg

	// Sharding (zero on sequential machines). Each shard holds its own
	// copy of every chanState its PEs attach to — a directional
	// half-channel: occupancy
	// accrues on the sending side's copy, and finalize sums the sides.
	// crossTo lists the other shards owning members of this channel
	// (ascending; nil for shard-internal channels), and localMembers
	// counts the members the owning shard holds — a broadcast with
	// localMembers < 2 has no local receivers.
	crossTo      []int
	localMembers int32

	// id is the global channel ID (the index into Stats.ChannelBusy);
	// a cross-shard message rebinds to the receiving shard's copy by it.
	id int32
	// portOff locates this channel's block of the machine's reverse-port
	// table (Machine.ports): k(k-1) entries for its k members, row i
	// for the sender at member position i (see port). With it the struct
	// is 128 bytes, two whole cache lines.
	portOff int32
}

// chanAt resolves a global channel ID against either layout: dense
// machines index chans directly, multi-shard machines go through the
// sparse map. Nil means no owned PE attaches to the channel — possible
// only on the sparse layout, and only for callers (scenario link ops)
// that walk scripted channel IDs rather than an owned PE's attachments.
func (m *Machine) chanAt(ci int) *chanState {
	if m.chanIdx == nil {
		return &m.chans[ci]
	}
	if li := m.chanIdx[ci]; li >= 0 {
		return &m.chans[li]
	}
	return nil
}

// heldMsg is one transmission parked at a downed channel.
type heldMsg struct {
	w   *wireMsg
	dur sim.Time
}

// committedBusy returns the occupancy that has actually elapsed by now.
// busyTotal is charged in full at transmit time, but a run that stops
// with messages still on the wire (MaxTime, or completion with control
// traffic in flight) must not report the unelapsed tail — which is
// exactly busyUntil-now, because a backlogged channel is continuously
// busy from now until it drains.
func (ch *chanState) committedBusy(now sim.Time) sim.Time {
	b := ch.busyTotal
	if ch.busyUntil > now {
		b -= ch.busyUntil - now
	}
	return b
}

// MsgKind classifies traffic for accounting.
type MsgKind uint8

const (
	// MsgGoal is a goal (new work) message.
	MsgGoal MsgKind = iota
	// MsgResponse is a completed goal's value travelling to its parent.
	MsgResponse
	// MsgLoad is the short periodic load-information word.
	MsgLoad
	// MsgControl is a strategy control message (e.g. GM proximity).
	MsgControl
	numMsgKinds
)

func (k MsgKind) String() string {
	switch k {
	case MsgGoal:
		return "goal"
	case MsgResponse:
		return "response"
	case MsgLoad:
		return "load"
	case MsgControl:
		return "control"
	default:
		return "unknown"
	}
}

// wireKind discriminates in-flight wire messages.
type wireKind uint8

const (
	// wireGoal is a single goal hop whose receiver's strategy handles
	// arrival (SendGoal).
	wireGoal wireKind = iota
	// wireGoalRoute is one hop of a shortest-path goal route; only the
	// final PE's strategy sees the arrival (RouteGoal).
	wireGoalRoute
	// wireResp is one hop of a response travelling to its parent PE.
	wireResp
	// wireCtrl is a point-to-point strategy control payload.
	wireCtrl
	// wireLoadBcast is a load broadcast: one transmission, or the group
	// of one broadcast's transmissions that end together (see
	// Machine.broadcast).
	wireLoadBcast
	// wireCtrlBcast is a control broadcast, grouped the same way.
	wireCtrlBcast
	// wireEnvBcast is a failed/recovered PE's immediate load broadcast
	// carrying the availability notification (payload: the EventKind,
	// PEFailed or PERecovered): receivers record the load word as usual
	// and FailureAware nodes additionally get the event. Counted and
	// charged exactly like the load word it replaces, so sentinel-only
	// strategies see bit-for-bit the PR 3 behaviour.
	wireEnvBcast
)

// wireMsg is one message occupying a channel: the typed, pooled
// replacement for the per-hop closures the hot path used to allocate.
// It implements sim.Action; delivery dispatches on kind. Messages are
// recycled through the machine's free list the moment they deliver.
//
// A broadcast message is either a single transmission on ch (a copy
// handed to another shard, or one held at a downed channel) or a group:
// slots marks the sender's attached channels chansOf[slot0+s] whose
// transmissions all end at this message's instant and deliver on this
// shard, so one engine event delivers them all, in channel order.
//
//simlint:pooled
type wireMsg struct {
	m        *Machine //simlint:keep rebound on every newMsg pop; pooled lists may cross runs (Pool), where the old machine is dead but unreachable state, not an aliasing hazard
	kind     wireKind
	ch       *chanState // the occupied channel; nil for a broadcast group
	goal     *Goal
	resp     response
	payload  any
	from     int // sending PE of this hop
	to       int // receiving PE of this hop
	dst      int // final destination (wireGoalRoute)
	sentLoad int32
	slot0    int32  // broadcast group: the chansOf index of bit 0 of slots
	slots    uint64 // broadcast group: bit s = chansOf[slot0+s]; 0 otherwise
}

// newMsg pops a message from the free list (or allocates the pool's
// next entry) with the common fields set.
func (m *Machine) newMsg(kind wireKind, from int, sentLoad int) *wireMsg {
	var w *wireMsg
	if n := len(m.msgFree); n > 0 {
		w = m.msgFree[n-1]
		m.msgFree[n-1] = nil
		m.msgFree = m.msgFree[:n-1]
	} else {
		if len(m.msgChunk) == 0 {
			m.msgChunk = make([]wireMsg, arenaChunk)
		}
		w = &m.msgChunk[0]
		m.msgChunk = m.msgChunk[1:]
	}
	w.m = m // free lists may be shared across runs (Pool)
	w.kind = kind
	w.from = from
	w.sentLoad = int32(sentLoad)
	w.slots = 0
	return w
}

// freeMsg clears the message's references and returns it to the pool.
//
//simlint:free
func (m *Machine) freeMsg(w *wireMsg) {
	w.ch = nil
	w.goal = nil
	w.payload = nil
	w.resp = response{}
	m.msgFree = append(m.msgFree, w)
}

// Act delivers the message. It copies what it needs, recycles itself,
// then dispatches — so nested transmissions triggered by the delivery
// (forwarded goals, next response hops) reuse this very message.
func (w *wireMsg) Act() {
	m, kind, ch := w.m, w.kind, w.ch
	g, resp, payload := w.goal, w.resp, w.payload
	from, to, dst, sentLoad := w.from, w.to, w.dst, int(w.sentLoad)
	slot0, slots := int(w.slot0), w.slots
	m.freeMsg(w)

	switch kind {
	case wireGoal:
		m.goalsInTransit--
		rcv := m.pes[to]
		m.piggyback(ch, from, to, sentLoad)
		if m.lossy && g.epoch != g.job.epoch {
			m.stats.GoalsLost++ // its attempt died in a crash mid-flight
			m.freeGoal(g)
			return
		}
		if m.peFailed[rcv.lx] {
			m.requeueGoal(to, g)
			return
		}
		rcv.node.HandleEvent(Event{Kind: GoalArrived, Goal: g, From: from})
	case wireGoalRoute:
		m.goalsInTransit--
		m.piggyback(ch, from, to, sentLoad)
		if m.lossy && g.epoch != g.job.epoch {
			m.stats.GoalsLost++
			m.freeGoal(g)
			return
		}
		if to == dst {
			if m.peFailed[m.pes[to].lx] {
				m.requeueGoal(to, g)
				return
			}
			m.pes[to].node.HandleEvent(Event{Kind: GoalArrived, Goal: g, From: from})
			return
		}
		m.routeGoal(to, dst, g)
	case wireResp:
		m.respsInTransit--
		m.piggyback(ch, from, to, sentLoad)
		m.routeResponse(to, resp)
	case wireCtrl:
		m.piggyback(ch, from, to, sentLoad)
		m.pes[to].node.HandleEvent(Event{Kind: Control, From: from, Payload: payload})
	default: // wireLoadBcast, wireCtrlBcast, wireEnvBcast
		if slots == 0 {
			m.deliverBcast(ch, kind, from, sentLoad, payload)
			return
		}
		// A group stands for one engine event per transmission: walk
		// them in channel order, stop where the engine stops (exactly
		// where the per-transmission events would have stopped firing),
		// and credit the engine with the transmissions delivered.
		chans := m.pes[from].chansOf[slot0:]
		n := uint64(0)
		for slots != 0 {
			s := bits.TrailingZeros64(slots)
			slots &= slots - 1
			m.deliverBcast(m.chanAt(chans[s]), kind, from, sentLoad, payload)
			n++
			if m.eng.Stopped() {
				break
			}
		}
		m.eng.Credit(n - 1)
	}
}

// deliverBcast delivers one broadcast transmission on ch to every
// member this shard owns. Load words (plain and env) write straight
// through the channel's reverse-port row for the sender — no neighbor
// search per receiver; a -1 entry (remote or non-neighbor receiver) is
// skipped. Broadcast deliveries must be idempotent, because a
// double-lattice pair hears each transaction twice (once per shared
// bus).
func (m *Machine) deliverBcast(ch *chanState, kind wireKind, from, load int, payload any) {
	members := ch.members
	if kind == wireCtrlBcast {
		// On a sharded machine only this shard's members exist in m.pes
		// (the cross-shard copy delivers to each remote shard's members
		// there), so the nil check is the ownership filter.
		for _, member := range members {
			if member == from {
				continue
			}
			if rcv := m.pes[member]; rcv != nil {
				rcv.node.HandleEvent(Event{Kind: Control, From: from, Payload: payload})
			}
		}
		return
	}
	env, _ := payload.(EventKind)
	i := 0
	for members[i] != from {
		i++
	}
	k := len(members) - 1
	off := int(ch.portOff) + i*k
	for r, port := range m.ports[off : off+k] {
		if port < 0 {
			continue
		}
		member := members[r]
		if r >= i {
			member = members[r+1]
		}
		m.noteLoad(member, port, from, load)
		if kind != wireEnvBcast {
			continue
		}
		// Only availability TRANSITIONS raise the event, so a
		// failure-aware node reacts exactly once per failure even when
		// it hears the word on two buses.
		downNow := env == PEFailed
		if m.nbrDown[port] == downNow {
			continue
		}
		m.nbrDown[port] = downNow
		if rcv := m.pes[member]; rcv.wantsFailure {
			rcv.node.HandleEvent(Event{Kind: env, From: from})
		}
	}
}

// port returns the reverse-port entry for a word from PE from to PE to
// over ch: the receiver's flat neighbor-table index, or -1 when this
// shard does not own the receiver or the receiver does not count the
// sender as a neighbor. Both PEs must be members of ch.
func (m *Machine) port(ch *chanState, from, to int) int32 {
	i, j := 0, 0
	for x, p := range ch.members {
		switch p {
		case from:
			i = x
		case to:
			j = x
		}
	}
	if j > i {
		j--
	}
	return m.ports[int(ch.portOff)+i*(len(ch.members)-1)+j]
}

// piggyback records the load word a point-to-point hop over ch carries
// from PE from to PE to, when piggybacking is configured.
func (m *Machine) piggyback(ch *chanState, from, to, load int) {
	if m.cfg.PiggybackLoad {
		m.noteLoad(to, m.port(ch, from, to), from, load)
	}
}

// noteLoad records load word load from PE from at reverse port port of
// receiving PE rcv (no-op for port -1), raising NeighborLoadChanged
// when the receiver's node is LoadAware.
func (m *Machine) noteLoad(rcv int, port int32, from, load int) {
	if port < 0 {
		return
	}
	m.nbrLoad[port] = int32(load)
	m.nbrSeen[port] = m.eng.Now()
	if m.loadAware {
		if pe := m.pes[rcv]; pe.wantsLoad {
			pe.node.HandleEvent(Event{Kind: NeighborLoadChanged, From: from, Load: load})
		}
	}
}

// transmit occupies the channel for dur units starting when it next
// frees up, then delivers the message. On a downed channel the message
// holds at the sender instead, transmitting (in arrival order) when the
// link is restored.
func (m *Machine) transmit(ch *chanState, dur sim.Time, w *wireMsg) {
	w.ch = ch
	if ch.down {
		ch.held = append(ch.held, heldMsg{w: w, dur: dur})
		return
	}
	end := ch.occupy(m.eng.Now(), dur)
	if m.grp != nil && m.crossShard(ch, end, w) {
		return
	}
	m.eng.AtAction(end, w)
}

// crossShard hands w off to the shard(s) owning its receiver(s),
// reporting whether the message was fully handed off (nothing left to
// deliver locally). Point-to-point kinds route by the receiving PE's
// owner; broadcast kinds copy the message to every remote member shard
// and keep the original only if this shard holds another member to
// hear it.
func (m *Machine) crossShard(ch *chanState, end sim.Time, w *wireMsg) bool {
	switch w.kind {
	case wireGoal, wireGoalRoute, wireResp, wireCtrl:
		d := m.grp.part.Assign[w.to]
		if d == m.shardID {
			return false
		}
		m.handOff(d, end, w)
		return true
	default: // wireLoadBcast, wireCtrlBcast, wireEnvBcast
		if ch.crossTo == nil {
			return false
		}
		m.handOffBcast(ch, end, w.kind, w.from, int(w.sentLoad), w.payload)
		if ch.localMembers >= 2 {
			return false
		}
		m.freeMsg(w)
		return true
	}
}

// handOffBcast hands one broadcast transmission on ch to every other
// shard owning a member of it, one copy per shard. The coordinator
// rebinds each copy to the receiving shard's own copy of the channel
// (shardGroup.drain), whose reverse-port entries cover that shard's
// members.
func (m *Machine) handOffBcast(ch *chanState, end sim.Time, kind wireKind, from, load int, payload any) {
	for _, d := range ch.crossTo {
		c := m.newMsg(kind, from, load)
		c.ch = ch
		c.payload = payload
		m.handOff(d, end, c)
	}
}

// handOff queues w on the per-destination-shard outbox the coordinator
// drains at the next window barrier. Conservative lookahead guarantees
// the delivery time lies beyond the current window — asserted here,
// because a violation would silently deliver into the receiver's past.
func (m *Machine) handOff(dst int, at sim.Time, w *wireMsg) {
	if at <= m.grp.winEnd {
		panic(fmt.Sprintf("machine: cross-shard delivery at t=%d inside window ending %d violates lookahead", at, m.grp.winEnd))
	}
	m.xout[dst] = append(m.xout[dst], xmsg{at: at, w: w})
}

// transmitFunc is transmit for cold paths and tests that want a closure
// instead of a pooled message. It ignores link outages (no caller
// transmits closures on a scripted channel).
func (m *Machine) transmitFunc(ch *chanState, dur sim.Time, deliver func()) sim.Time {
	end := ch.occupy(m.eng.Now(), dur)
	m.eng.At(end, deliver)
	return end
}

// occupy reserves the channel's next dur free units and returns when the
// reservation ends. A degraded channel stretches the occupancy by its
// factor (floor one unit, so a message never becomes free).
func (ch *chanState) occupy(now, dur sim.Time) sim.Time {
	if ch.degrade != 0 {
		dur = sim.Time(float64(dur) * ch.degrade)
		if dur < 1 {
			dur = 1
		}
	}
	start := now
	if ch.busyUntil > start {
		start = ch.busyUntil
	}
	end := start + dur
	ch.busyUntil = end
	ch.busyTotal += dur
	ch.messages++
	return end
}

// pickChannel returns the least-backlogged channel among the candidates
// (channel IDs), breaking ties toward the lower ID. Bus topologies give
// a PE pair up to two parallel buses; links give exactly one. A downed
// channel is chosen only when every candidate is down (the message then
// holds at it until restore).
func (m *Machine) pickChannel(candidates []int) *chanState {
	best := m.chanAt(candidates[0])
	for _, ci := range candidates[1:] {
		ch := m.chanAt(ci)
		if best.down != ch.down {
			if best.down {
				best = ch
			}
			continue
		}
		if ch.busyUntil < best.busyUntil {
			best = ch
		}
	}
	return best
}
