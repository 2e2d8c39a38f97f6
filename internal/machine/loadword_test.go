package machine

import (
	"fmt"
	"testing"

	"cwnsim/internal/scenario"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// wordRecorder is a LoadAware + FailureAware test strategy that hashes
// every event its nodes receive as (kind, receiver, from, load, now).
// It places goals like spread (so placement depends on the load words
// it hears) and broadcasts a control word whenever an arriving goal
// leaves its queue long, so the control broadcast path carries traffic
// too. Each node hashes only its own deliveries, in its own engine
// order, so the per-node hashes are deterministic under any shard
// schedule.
// With stopAt set, the first load word a node hears at or after stopAt
// stops the engine from inside the delivery.
type wordRecorder struct{ stopAt sim.Time }

func (wordRecorder) Name() string   { return "word-recorder" }
func (wordRecorder) Setup(*Machine) {}
func (s wordRecorder) NewNode(pe *PE) NodeStrategy {
	return &recNode{pe: pe, h: fnvOffset, stopAt: s.stopAt}
}

type recNode struct {
	pe     *PE
	h      uint64
	stopAt sim.Time
}

func (n *recNode) WantsLoadEvents() bool    { return true }
func (n *recNode) WantsFailureEvents() bool { return true }

func (n *recNode) HandleEvent(ev Event) {
	load := int64(ev.Load)
	if ev.Kind == Control {
		load = int64(ev.Payload.(int))
	}
	n.h = mixWords(n.h, int64(ev.Kind), int64(n.pe.ID()), int64(ev.From), load, int64(n.pe.Now()))
	if ev.Kind == NeighborLoadChanged && n.stopAt > 0 && n.pe.Now() >= n.stopAt {
		n.pe.Machine().Engine().Stop()
	}
	switch ev.Kind {
	case GoalCreated:
		if nbr, l := n.pe.LeastLoadedNeighbor(); nbr >= 0 && l < n.pe.Load() {
			n.pe.SendGoal(nbr, ev.Goal)
			return
		}
		n.pe.Accept(ev.Goal)
	case GoalArrived:
		n.pe.Accept(ev.Goal)
		if l := n.pe.Load(); l >= 3 {
			n.pe.BroadcastControl(l)
		}
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mixWords folds 64-bit words into an FNV-1a style running hash.
func mixWords(h uint64, words ...int64) uint64 {
	for _, w := range words {
		h ^= uint64(w)
		h *= fnvPrime
	}
	return h
}

// loadWordDigest hashes a finished run: every node's delivery hash in
// PE order, then the full event and channel accounting of Stats.
func loadWordDigest(m *Machine, st *Stats) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < m.NumPEs(); i++ {
		h = mixWords(h, int64(m.PE(i).Node().(*recNode).h))
	}
	h = mixWords(h, int64(st.Events), int64(st.Makespan), st.Result, st.JobsDone)
	for _, c := range st.MsgCounts {
		h = mixWords(h, c)
	}
	for i := range st.ChannelBusy {
		h = mixWords(h, int64(st.ChannelBusy[i]), st.ChannelMsgs[i])
	}
	return h
}

// loadWordCell is one point of the load-word equivalence product.
type loadWordCell struct {
	topo, script string
	piggyback    bool
	sched        sim.SchedulerKind
	shards       int
}

func (c loadWordCell) String() string {
	pb := 0
	if c.piggyback {
		pb = 1
	}
	return fmt.Sprintf("%s/%s/pb=%d/%s/k=%d", c.topo, c.script, pb, c.sched, c.shards)
}

var loadWordTopos = map[string]func() *topology.Topology{
	"grid6x6":   func() *topology.Topology { return topology.NewGrid(6, 6) },
	"itorus6x6": func() *topology.Topology { return topology.NewTorusImplicit(6, 6) },
	"dlm8x8":    func() *topology.Topology { return topology.NewDLM(8, 8, 4) },
}

var loadWordScripts = map[string]string{
	"none": "",
	// A sub-unit degrade (its load words end with the nominal ones), an
	// outage that holds traffic, and a stretch, on links every topology
	// above has.
	"links": "degradelink:a=0:b=1:x=0.5@t=40,droplink:a=1:b=2@t=60,degradelink:a=0:b=6:x=3@t=80," +
		"restorelink:a=1:b=2@t=400,restorelink:a=0:b=1@t=700,restorelink:a=0:b=6@t=900",
	"crash": "chaos:mtbf=700:mttr=350:until=6000:crash@seed=7",
}

func loadWordCells(shards []int) []loadWordCell {
	var cells []loadWordCell
	for _, topo := range []string{"grid6x6", "itorus6x6", "dlm8x8"} {
		for _, script := range []string{"none", "links", "crash"} {
			for _, pb := range []bool{false, true} {
				for _, sched := range []sim.SchedulerKind{sim.SchedHeap, sim.SchedWheel} {
					for _, k := range shards {
						cells = append(cells, loadWordCell{topo, script, pb, sched, k})
					}
				}
			}
		}
	}
	return cells
}

func (c loadWordCell) run() uint64 {
	cfg := DefaultConfig()
	cfg.PiggybackLoad = c.piggyback
	cfg.Scheduler = c.sched
	cfg.Shards = c.shards
	cfg.MaxTime = 40000
	cfg.RetryLimit = 2
	cfg.RetryBackoff = 40
	if s := loadWordScripts[c.script]; s != "" {
		cfg.Scenario = scenario.MustParse(s)
	}
	src := NewFixedInterval(workload.NewFib(9), 130, 20)
	m := NewStream(loadWordTopos[c.topo](), src, wordRecorder{}, cfg)
	st := m.Run()
	return loadWordDigest(m, st)
}

func checkLoadWordCells(t *testing.T, shards []int) {
	for _, c := range loadWordCells(shards) {
		name := c.String()
		got := c.run()
		want, ok := loadWordGolden[name]
		if !ok {
			t.Errorf("%s: no golden; got %#016x", name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: digest %#016x, want %#016x", name, got, want)
		}
	}
}

// TestLoadWordEquivalence pins every load-word, availability and
// control delivery — who heard what, from whom, when — together with
// the event count, message counts and per-channel occupancy, across
// topology × link/crash scripts × piggybacking × scheduler on the
// sequential machine. The goldens were recorded before broadcast
// deliveries were grouped into one engine event per instant, so any
// reordering or lost delivery shows up here.
func TestLoadWordEquivalence(t *testing.T) {
	checkLoadWordCells(t, []int{0})
}

// TestShardLoadWordEquivalence is the same product at Shards=1 and 2:
// cross-shard broadcast clones and piggybacked hops must land on the
// receiving shard's own reverse-port entries.
func TestShardLoadWordEquivalence(t *testing.T) {
	checkLoadWordCells(t, []int{1, 2})
}

// TestLoadWordStopInsideBroadcast stops the engine from inside a load
// word's delivery, part way through the broadcasts of one instant: the
// run must end after exactly the deliveries (and with exactly the
// event count) of the per-channel delivery path, where the stopped
// engine fires none of the remaining transmissions.
func TestLoadWordStopInsideBroadcast(t *testing.T) {
	cases := []struct {
		topo   string
		stopAt sim.Time
		want   uint64
	}{
		{"dlm8x8", 500, 0x39b37bca7402abe7},
		{"dlm8x8", 1237, 0xafd00d910f74f006},
		{"grid6x6", 777, 0xfe7f97f69d4385eb},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.PiggybackLoad = false // only broadcasts carry words, so the stop lands in one
		src := NewFixedInterval(workload.NewFib(9), 130, 20)
		m := NewStream(loadWordTopos[c.topo](), src, wordRecorder{stopAt: c.stopAt}, cfg)
		st := m.Run()
		if st.Makespan >= c.stopAt+cfg.CtrlHopTime {
			t.Errorf("%s stop at %d: run went on to %d", c.topo, c.stopAt, st.Makespan)
		}
		if got := loadWordDigest(m, st); got != c.want {
			t.Errorf("%s stop at %d: digest %#016x, want %#016x", c.topo, c.stopAt, got, c.want)
		}
	}
}

// loadWordGolden was recorded on the per-channel delivery path, before
// the reverse-port table and grouped broadcast delivery existed.
var loadWordGolden = map[string]uint64{
	"grid6x6/none/pb=0/heap/k=0":     0xe7feb9474f303f1f,
	"grid6x6/none/pb=0/wheel/k=0":    0xe7feb9474f303f1f,
	"grid6x6/none/pb=1/heap/k=0":     0xe5cedb92e79a8a0e,
	"grid6x6/none/pb=1/wheel/k=0":    0xe5cedb92e79a8a0e,
	"grid6x6/links/pb=0/heap/k=0":    0x61f8725b82b73e78,
	"grid6x6/links/pb=0/wheel/k=0":   0x61f8725b82b73e78,
	"grid6x6/links/pb=1/heap/k=0":    0xbcb13ea5147098ab,
	"grid6x6/links/pb=1/wheel/k=0":   0xbcb13ea5147098ab,
	"grid6x6/crash/pb=0/heap/k=0":    0x10fff8d61aac06fe,
	"grid6x6/crash/pb=0/wheel/k=0":   0x10fff8d61aac06fe,
	"grid6x6/crash/pb=1/heap/k=0":    0xed1bd9ebbce641e0,
	"grid6x6/crash/pb=1/wheel/k=0":   0xed1bd9ebbce641e0,
	"itorus6x6/none/pb=0/heap/k=0":   0x658a43c269544119,
	"itorus6x6/none/pb=0/wheel/k=0":  0x658a43c269544119,
	"itorus6x6/none/pb=1/heap/k=0":   0xd1ff47b92dcd7dbd,
	"itorus6x6/none/pb=1/wheel/k=0":  0xd1ff47b92dcd7dbd,
	"itorus6x6/links/pb=0/heap/k=0":  0xa7d03ab5fb2efece,
	"itorus6x6/links/pb=0/wheel/k=0": 0xa7d03ab5fb2efece,
	"itorus6x6/links/pb=1/heap/k=0":  0x890cfb0ab43bb332,
	"itorus6x6/links/pb=1/wheel/k=0": 0x890cfb0ab43bb332,
	"itorus6x6/crash/pb=0/heap/k=0":  0xefe29dcbce7d8cb1,
	"itorus6x6/crash/pb=0/wheel/k=0": 0xefe29dcbce7d8cb1,
	"itorus6x6/crash/pb=1/heap/k=0":  0x4baa38d2d29cc5eb,
	"itorus6x6/crash/pb=1/wheel/k=0": 0x4baa38d2d29cc5eb,
	"dlm8x8/none/pb=0/heap/k=0":      0xef8bd8c4b90cb2cf,
	"dlm8x8/none/pb=0/wheel/k=0":     0xef8bd8c4b90cb2cf,
	"dlm8x8/none/pb=1/heap/k=0":      0x4030a35fb69e16f8,
	"dlm8x8/none/pb=1/wheel/k=0":     0x4030a35fb69e16f8,
	"dlm8x8/links/pb=0/heap/k=0":     0x31a6ac414fa99a01,
	"dlm8x8/links/pb=0/wheel/k=0":    0x31a6ac414fa99a01,
	"dlm8x8/links/pb=1/heap/k=0":     0x48455c21d61104ab,
	"dlm8x8/links/pb=1/wheel/k=0":    0x48455c21d61104ab,
	"dlm8x8/crash/pb=0/heap/k=0":     0xb50d127dfb9f0f04,
	"dlm8x8/crash/pb=0/wheel/k=0":    0xb50d127dfb9f0f04,
	"dlm8x8/crash/pb=1/heap/k=0":     0x6925d3e24d10226e,
	"dlm8x8/crash/pb=1/wheel/k=0":    0x6925d3e24d10226e,
	"grid6x6/none/pb=0/heap/k=1":     0xe7feb9474f303f1f,
	"grid6x6/none/pb=0/heap/k=2":     0x7d604907d5f2011b,
	"grid6x6/none/pb=0/wheel/k=1":    0xe7feb9474f303f1f,
	"grid6x6/none/pb=0/wheel/k=2":    0x7d604907d5f2011b,
	"grid6x6/none/pb=1/heap/k=1":     0xe5cedb92e79a8a0e,
	"grid6x6/none/pb=1/heap/k=2":     0x3cbe51b8d2d70c1a,
	"grid6x6/none/pb=1/wheel/k=1":    0xe5cedb92e79a8a0e,
	"grid6x6/none/pb=1/wheel/k=2":    0x3cbe51b8d2d70c1a,
	"grid6x6/links/pb=0/heap/k=1":    0x61f8725b82b73e78,
	"grid6x6/links/pb=0/heap/k=2":    0xad001792f6de5754,
	"grid6x6/links/pb=0/wheel/k=1":   0x61f8725b82b73e78,
	"grid6x6/links/pb=0/wheel/k=2":   0xad001792f6de5754,
	"grid6x6/links/pb=1/heap/k=1":    0xbcb13ea5147098ab,
	"grid6x6/links/pb=1/heap/k=2":    0x570b131c798bcbb4,
	"grid6x6/links/pb=1/wheel/k=1":   0xbcb13ea5147098ab,
	"grid6x6/links/pb=1/wheel/k=2":   0x570b131c798bcbb4,
	"grid6x6/crash/pb=0/heap/k=1":    0x10fff8d61aac06fe,
	"grid6x6/crash/pb=0/heap/k=2":    0x84e36713291eebe5,
	"grid6x6/crash/pb=0/wheel/k=1":   0x10fff8d61aac06fe,
	"grid6x6/crash/pb=0/wheel/k=2":   0x84e36713291eebe5,
	"grid6x6/crash/pb=1/heap/k=1":    0xed1bd9ebbce641e0,
	"grid6x6/crash/pb=1/heap/k=2":    0xbdca573e9a926af3,
	"grid6x6/crash/pb=1/wheel/k=1":   0xed1bd9ebbce641e0,
	"grid6x6/crash/pb=1/wheel/k=2":   0xbdca573e9a926af3,
	"itorus6x6/none/pb=0/heap/k=1":   0x658a43c269544119,
	"itorus6x6/none/pb=0/heap/k=2":   0xb752229bccc15d41,
	"itorus6x6/none/pb=0/wheel/k=1":  0x658a43c269544119,
	"itorus6x6/none/pb=0/wheel/k=2":  0xb752229bccc15d41,
	"itorus6x6/none/pb=1/heap/k=1":   0xd1ff47b92dcd7dbd,
	"itorus6x6/none/pb=1/heap/k=2":   0x18664bf0e3fb2de8,
	"itorus6x6/none/pb=1/wheel/k=1":  0xd1ff47b92dcd7dbd,
	"itorus6x6/none/pb=1/wheel/k=2":  0x18664bf0e3fb2de8,
	"itorus6x6/links/pb=0/heap/k=1":  0xa7d03ab5fb2efece,
	"itorus6x6/links/pb=0/heap/k=2":  0xa9348dfbda8c2aa9,
	"itorus6x6/links/pb=0/wheel/k=1": 0xa7d03ab5fb2efece,
	"itorus6x6/links/pb=0/wheel/k=2": 0xa9348dfbda8c2aa9,
	"itorus6x6/links/pb=1/heap/k=1":  0x890cfb0ab43bb332,
	"itorus6x6/links/pb=1/heap/k=2":  0xd7b1d92e0e1cd905,
	"itorus6x6/links/pb=1/wheel/k=1": 0x890cfb0ab43bb332,
	"itorus6x6/links/pb=1/wheel/k=2": 0xd7b1d92e0e1cd905,
	"itorus6x6/crash/pb=0/heap/k=1":  0xefe29dcbce7d8cb1,
	"itorus6x6/crash/pb=0/heap/k=2":  0xee34983708dc9344,
	"itorus6x6/crash/pb=0/wheel/k=1": 0xefe29dcbce7d8cb1,
	"itorus6x6/crash/pb=0/wheel/k=2": 0xee34983708dc9344,
	"itorus6x6/crash/pb=1/heap/k=1":  0x4baa38d2d29cc5eb,
	"itorus6x6/crash/pb=1/heap/k=2":  0x3a9a54be70bf6fbf,
	"itorus6x6/crash/pb=1/wheel/k=1": 0x4baa38d2d29cc5eb,
	"itorus6x6/crash/pb=1/wheel/k=2": 0x3a9a54be70bf6fbf,
	"dlm8x8/none/pb=0/heap/k=1":      0xef8bd8c4b90cb2cf,
	"dlm8x8/none/pb=0/heap/k=2":      0xf8467de19f7fbce5,
	"dlm8x8/none/pb=0/wheel/k=1":     0xef8bd8c4b90cb2cf,
	"dlm8x8/none/pb=0/wheel/k=2":     0xf8467de19f7fbce5,
	"dlm8x8/none/pb=1/heap/k=1":      0x4030a35fb69e16f8,
	"dlm8x8/none/pb=1/heap/k=2":      0x42ca6c8b04ef6ed4,
	"dlm8x8/none/pb=1/wheel/k=1":     0x4030a35fb69e16f8,
	"dlm8x8/none/pb=1/wheel/k=2":     0x42ca6c8b04ef6ed4,
	"dlm8x8/links/pb=0/heap/k=1":     0x31a6ac414fa99a01,
	"dlm8x8/links/pb=0/heap/k=2":     0x734e0e85a987d5ac,
	"dlm8x8/links/pb=0/wheel/k=1":    0x31a6ac414fa99a01,
	"dlm8x8/links/pb=0/wheel/k=2":    0x734e0e85a987d5ac,
	"dlm8x8/links/pb=1/heap/k=1":     0x48455c21d61104ab,
	"dlm8x8/links/pb=1/heap/k=2":     0xdbbf6a1324c4be80,
	"dlm8x8/links/pb=1/wheel/k=1":    0x48455c21d61104ab,
	"dlm8x8/links/pb=1/wheel/k=2":    0xdbbf6a1324c4be80,
	"dlm8x8/crash/pb=0/heap/k=1":     0xb50d127dfb9f0f04,
	"dlm8x8/crash/pb=0/heap/k=2":     0x82f3419e1f0e39c9,
	"dlm8x8/crash/pb=0/wheel/k=1":    0xb50d127dfb9f0f04,
	"dlm8x8/crash/pb=0/wheel/k=2":    0x82f3419e1f0e39c9,
	"dlm8x8/crash/pb=1/heap/k=1":     0x6925d3e24d10226e,
	"dlm8x8/crash/pb=1/heap/k=2":     0x2866cfa96bd9462b,
	"dlm8x8/crash/pb=1/wheel/k=1":    0x6925d3e24d10226e,
	"dlm8x8/crash/pb=1/wheel/k=2":    0x2866cfa96bd9462b,
}
