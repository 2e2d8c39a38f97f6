package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"cwnsim/internal/experiments"
	"cwnsim/internal/machine"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
)

// span is one timed call into the library.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	Dur    int64  `json:"dur_ns"`
}

// spans keeps the traced run's spans in memory until write. A nil
// *spans records nothing, so untraced code paths pass nil. Only the
// main goroutine records.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns its ID (-1 when not recording) and the
// start time to hand to end.
func (s *spans) begin(name string, parent int) (int, time.Time) {
	now := time.Now()
	if s == nil {
		return -1, now
	}
	s.list = append(s.list, span{ID: len(s.list), Parent: parent, Name: name, Start: now.Sub(s.t0).Nanoseconds()})
	return len(s.list) - 1, now
}

// end closes span id and returns the elapsed time, recording or not.
func (s *spans) end(id int, start time.Time) time.Duration {
	d := time.Since(start)
	if id >= 0 {
		s.list[id].Dur = d.Nanoseconds()
	}
	return d
}

// add records a span measured elsewhere.
func (s *spans) add(name string, parent int, start time.Time, d time.Duration) {
	if s != nil {
		s.list = append(s.list, span{ID: len(s.list), Parent: parent, Name: name,
			Start: start.Sub(s.t0).Nanoseconds(), Dur: d.Nanoseconds()})
	}
}

func (s *spans) write(path string, p provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		provenance
		Spans []span `json:"spans"`
	}{p, s.list})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

const numEventKinds = int(machine.NeighborLoadChanged) + 1

// handled is the strategy handlers' host time and call counts by event
// kind.
type handled struct {
	dur   time.Duration
	calls [numEventKinds]int64
}

func (h *handled) add(o handled) {
	h.dur += o.dur
	for i, n := range o.calls {
		h.calls[i] += n
	}
}

func (h *handled) total() int64 {
	var n int64
	for _, c := range h.calls {
		n += c
	}
	return n
}

// tracedStrategy wraps a strategy so that every node times and counts
// its HandleEvent calls. Counters live in the nodes, because the shards
// of a run call their nodes from their own goroutines.
type tracedStrategy struct {
	machine.Strategy
	mu    sync.Mutex
	nodes []*tracedNode
	// The run the strategy was set up for, to name its span in a sweep.
	seed    int64
	setupAt time.Time
}

// tracedSeqOnly forwards the strategy-level SequentialOnly marker.
type tracedSeqOnly struct {
	*tracedStrategy
	so machine.SequentialOnly
}

func (t tracedSeqOnly) SequentialOnly() string { return t.so.SequentialOnly() }

// wrapStrategy returns s wrapped for tracing, and the wrapper's counters.
func wrapStrategy(s machine.Strategy) (machine.Strategy, *tracedStrategy) {
	t := &tracedStrategy{Strategy: s}
	if so, ok := s.(machine.SequentialOnly); ok {
		return tracedSeqOnly{t, so}, t
	}
	return t, t
}

func (t *tracedStrategy) Setup(m *machine.Machine) {
	t.mu.Lock()
	t.seed, t.setupAt = m.Config().Seed, time.Now()
	t.mu.Unlock()
	t.Strategy.Setup(m)
}

func (t *tracedStrategy) NewNode(pe *machine.PE) machine.NodeStrategy {
	n := &tracedNode{inner: t.Strategy.NewNode(pe)}
	t.mu.Lock()
	t.nodes = append(t.nodes, n)
	t.mu.Unlock()
	return n
}

// total sums the nodes' counters; call it after Run has returned.
func (t *tracedStrategy) total() handled {
	var h handled
	for _, n := range t.nodes {
		h.add(n.h)
	}
	return h
}

// tracedNode times one PE's handler. It forwards the node-level
// capability interfaces, so the machine delivers exactly the events it
// would deliver to the bare node.
type tracedNode struct {
	inner machine.NodeStrategy
	h     handled
}

func (n *tracedNode) HandleEvent(ev machine.Event) {
	t0 := time.Now()
	n.inner.HandleEvent(ev)
	n.h.dur += time.Since(t0)
	n.h.calls[ev.Kind]++
}

func (n *tracedNode) WantsFailureEvents() bool {
	x, ok := n.inner.(machine.FailureAware)
	return ok && x.WantsFailureEvents()
}

func (n *tracedNode) WantsSpeedEvents() bool {
	x, ok := n.inner.(machine.SpeedAware)
	return ok && x.WantsSpeedEvents()
}

func (n *tracedNode) WantsLoadEvents() bool {
	x, ok := n.inner.(machine.LoadAware)
	return ok && x.WantsLoadEvents()
}

// tracedKind prefixes the strategy kinds registered below: a spec with
// kind tracedKind+"gm" builds the "gm" strategy wrapped for tracing.
// RunAll builds each spec's strategy itself, so the sweep's traced round
// reaches its strategies through the registry.
const tracedKind = "perfbench-traced-"

func init() {
	for _, kind := range []string{"cwn", "gm"} {
		experiments.RegisterStrategy(tracedKind+kind, func(ss experiments.StrategySpec) machine.Strategy {
			ss.Kind = kind
			s, t := wrapStrategy(ss.Build())
			sweepTrace.mu.Lock()
			sweepTrace.list = append(sweepTrace.list, t)
			sweepTrace.mu.Unlock()
			return s
		})
	}
}

// sweepTrace collects the traced strategies that RunAll's workers build.
var sweepTrace struct {
	mu   sync.Mutex
	list []*tracedStrategy
}

// tracedSpecs returns specs with every strategy routed through the
// traced kinds, and forgets the strategies of any earlier traced round.
func tracedSpecs(specs []experiments.RunSpec) []experiments.RunSpec {
	sweepTrace.mu.Lock()
	sweepTrace.list = nil
	sweepTrace.mu.Unlock()
	out := slices.Clone(specs)
	for i := range out {
		out[i].Strategy.Kind = tracedKind + out[i].Strategy.Kind
	}
	return out
}

// sweepHandled sums the handler counters of a traced RunAll round and
// records one span per spec, from its strategy's Setup to the end of its
// Result.Wall. Specs are told apart by their seeds, which differ.
func sweepHandled(sp *spans, parent int, specs []experiments.RunSpec, results []*experiments.Result) handled {
	bySeed := map[int64]int{}
	for i, s := range specs {
		bySeed[s.Seed] = i
	}
	sweepTrace.mu.Lock()
	defer sweepTrace.mu.Unlock()
	var h handled
	for _, t := range sweepTrace.list {
		if t.setupAt.IsZero() {
			continue // built only to name a spec, never run
		}
		h.add(t.total())
		if i, ok := bySeed[t.seed]; ok && results[i] != nil {
			sp.add(fmt.Sprintf("spec %d %s", i, specs[i].Name()), parent, t.setupAt, results[i].Wall)
		}
	}
	return h
}

// probeSink keeps the probe loops' results live.
var probeSink int

// probeTopology times NextHop, Dist and Neighbors over n seeded random
// pairs of distinct PEs of topo, in ns per call.
func probeTopology(topo *topology.Topology, seed int64, n int) (nextHop, dist, nbrs float64) {
	rng := rand.New(rand.NewSource(seed))
	size := topo.Size()
	pairs := make([][2]int, n)
	for i := range pairs {
		a, b := rng.Intn(size), rng.Intn(size-1)
		if b >= a {
			b++
		}
		pairs[i] = [2]int{a, b}
	}
	per := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / float64(n) }
	sink := 0
	t0 := time.Now()
	for _, p := range pairs {
		sink += topo.NextHop(p[0], p[1])
	}
	nextHop = per(t0)
	t0 = time.Now()
	for _, p := range pairs {
		sink += topo.Dist(p[0], p[1])
	}
	dist = per(t0)
	t0 = time.Now()
	for _, p := range pairs {
		sink += len(topo.Neighbors(p[0]))
	}
	nbrs = per(t0)
	probeSink += sink
	return
}

// probeEngine drives a bare engine at a standing population of pop
// tickers with the machine's load period of 20, each firing one
// Schedule'd event per tick, for about events events. It returns host
// ns per processed event.
func probeEngine(pop int, seed int64, events int) float64 {
	pop = max(pop, 1)
	eng := sim.NewEngine(seed)
	rng := rand.New(rand.NewSource(seed))
	noop := func() {}
	for i := 0; i < pop; i++ {
		sim.NewTicker(eng, 20, sim.Time(rng.Intn(20)), func() { eng.Schedule(1, noop) })
	}
	horizon := sim.Time(20 * (events/(2*pop) + 1))
	t0 := time.Now()
	eng.RunUntil(horizon)
	return float64(time.Since(t0).Nanoseconds()) / float64(eng.Processed())
}
