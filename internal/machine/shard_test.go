package machine

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cwnsim/internal/scenario"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// spread is a load-aware test strategy that generates real cross-shard
// traffic: each new goal is offloaded to the least-loaded neighbor when
// that neighbor looks strictly less loaded, so placement depends on
// piggybacked loads, broadcast timing and RNG tie-breaks — the full
// protocol surface.
type spread struct{}

func (spread) Name() string                { return "spread" }
func (spread) Setup(*Machine)              {}
func (spread) NewNode(pe *PE) NodeStrategy { return AdaptNode(spreadNode{pe}) }

type spreadNode struct{ pe *PE }

func (n spreadNode) PlaceNewGoal(g *Goal) {
	if nbr, load := n.pe.LeastLoadedNeighbor(); nbr >= 0 && load < n.pe.Load() {
		n.pe.SendGoal(nbr, g)
		return
	}
	n.pe.Accept(g)
}
func (n spreadNode) GoalArrived(g *Goal, from int) { n.pe.Accept(g) }
func (n spreadNode) Control(int, any)              {}

// shardCase is one (topology, strategy, source) cell of the shard
// cross-check matrix.
type shardCase struct {
	name  string
	topo  func() *topology.Topology
	strat Strategy
	open  bool
}

func shardCases() []shardCase {
	return []shardCase{
		{"closed/grid5x5/spread", func() *topology.Topology { return topology.NewGrid(5, 5) }, spread{}, false},
		{"closed/ring12/pushright", func() *topology.Topology { return topology.NewRing(12) }, pushRight{}, false},
		{"open/grid4x4/spread", func() *topology.Topology { return topology.NewGrid(4, 4) }, spread{}, true},
		{"open/torus4x4/spread", func() *topology.Topology { return topology.NewTorus(4, 4) }, spread{}, true},
	}
}

func (c shardCase) run(t *testing.T, shards int, serial bool) *Stats {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.ShardSerial = serial
	tree := workload.NewFib(10)
	var src JobSource = NewSingleJob(tree)
	if c.open {
		src = NewFixedInterval(tree, 120, 8)
	}
	return NewStream(c.topo(), src, c.strat, cfg).Run()
}

// shardFP extends the event-level fingerprint with every per-PE and
// per-job detail a divergence could disturb.
type shardFP struct {
	fingerprint
	goalsPerPE []int64
	busyPerPE  []sim.Time
	chanMsgs   []int64
	records    []JobRecord
	p99        float64
}

func shardFPOf(st *Stats) shardFP {
	return shardFP{
		fingerprint: fp(st),
		goalsPerPE:  st.GoalsPerPE,
		busyPerPE:   st.BusyPerPE,
		chanMsgs:    st.ChannelMsgs,
		records:     st.JobRecords,
		p99:         st.SojournP99(),
	}
}

// TestShardOneBitForBitSequential pins the protocol's reference case:
// Shards=1 runs the full windowed shard machinery — windows, barriers,
// idle fast-forward — and must reproduce the sequential machine bit
// for bit, across every matrix cell.
func TestShardOneBitForBitSequential(t *testing.T) {
	for _, c := range shardCases() {
		t.Run(c.name, func(t *testing.T) {
			seq := shardFPOf(c.run(t, 0, false))
			one := shardFPOf(c.run(t, 1, false))
			if !reflect.DeepEqual(seq, one) {
				t.Fatalf("Shards=1 diverged from sequential:\nseq: %+v\nshd: %+v", seq.fingerprint, one.fingerprint)
			}
		})
	}
}

// TestShardParallelMatchesSerial pins the determinism claim for real
// parallelism: a K-shard run on K goroutines must equal its
// single-goroutine window-by-window replay (ShardSerial) bit for bit —
// the proof that the thread schedule cannot leak into results.
func TestShardParallelMatchesSerial(t *testing.T) {
	for _, c := range shardCases() {
		for _, k := range []int{2, 4} {
			t.Run(c.name, func(t *testing.T) {
				par := shardFPOf(c.run(t, k, false))
				ser := shardFPOf(c.run(t, k, true))
				if !reflect.DeepEqual(par, ser) {
					t.Fatalf("K=%d parallel diverged from serial replay:\npar: %+v\nser: %+v", k, par.fingerprint, ser.fingerprint)
				}
			})
		}
	}
}

// TestShardParallelRepeatable runs the same parallel spec twice:
// identical results, independent of goroutine scheduling between the
// two runs.
func TestShardParallelRepeatable(t *testing.T) {
	c := shardCases()[0]
	a := shardFPOf(c.run(t, 4, false))
	b := shardFPOf(c.run(t, 4, false))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical K=4 runs diverged:\n1st: %+v\n2nd: %+v", a.fingerprint, b.fingerprint)
	}
}

// TestShardConservationVsSequential checks what K>=2 and sequential
// runs must still agree on even though same-timestamp event order
// differs: the workload's size and answer, the job stream, and the
// internal consistency of the merged per-PE accounting.
func TestShardConservationVsSequential(t *testing.T) {
	for _, c := range shardCases() {
		t.Run(c.name, func(t *testing.T) {
			seq := c.run(t, 0, false)
			for _, k := range []int{2, 3, 4} {
				st := c.run(t, k, false)
				if !st.Completed || !seq.Completed {
					t.Fatalf("K=%d: completed=%v, sequential completed=%v", k, st.Completed, seq.Completed)
				}
				if st.Result != seq.Result {
					t.Errorf("K=%d: result %d, sequential %d", k, st.Result, seq.Result)
				}
				for name, pair := range map[string][2]int64{
					"goals":          {int64(st.Goals), int64(seq.Goals)},
					"goalsExecuted":  {st.GoalsExecuted, seq.GoalsExecuted},
					"respIntegrated": {st.RespIntegrated, seq.RespIntegrated},
					"jobsInjected":   {st.JobsInjected, seq.JobsInjected},
					"jobsDone":       {st.JobsDone, seq.JobsDone},
					"sojournN":       {int64(st.Sojourn.N()), int64(seq.Sojourn.N())},
				} {
					if pair[0] != pair[1] {
						t.Errorf("K=%d: %s = %d, sequential %d", k, name, pair[0], pair[1])
					}
				}
				var perPE int64
				for _, g := range st.GoalsPerPE {
					perPE += g
				}
				if perPE != st.GoalsExecuted {
					t.Errorf("K=%d: per-PE goal counts sum to %d, want %d", k, perPE, st.GoalsExecuted)
				}
				var busy sim.Time
				for _, b := range st.BusyPerPE {
					busy += b
				}
				if busy != st.TotalBusy {
					t.Errorf("K=%d: per-PE busy sums to %d, want %d", k, busy, st.TotalBusy)
				}
				if int64(len(st.JobRecords)) != st.JobsDone {
					t.Errorf("K=%d: %d job records for %d jobs", k, len(st.JobRecords), st.JobsDone)
				}
				for i := 1; i < len(st.JobRecords); i++ {
					if st.JobRecords[i].DoneAt < st.JobRecords[i-1].DoneAt {
						t.Errorf("K=%d: job records out of completion order at %d", k, i)
						break
					}
				}
			}
		})
	}
}

// TestShardClampAndOvershard pins the clamp: more shards than PEs is
// the PEs-many-shards run, not a panic.
func TestShardClampAndOvershard(t *testing.T) {
	c := shardCase{topo: func() *topology.Topology { return topology.NewGrid(3, 3) }, strat: spread{}}
	big := shardFPOf(c.run(t, 64, false))
	exact := shardFPOf(c.run(t, 9, false))
	if !reflect.DeepEqual(big, exact) {
		t.Fatalf("Shards=64 on 9 PEs diverged from Shards=9")
	}
}

// TestShardRejectsSequentialOnly pins the SequentialOnly gate: a
// strategy declaring global state must refuse to shard, with its
// reason in the panic.
func TestShardRejectsSequentialOnly(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sharding a SequentialOnly strategy did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "global-test reads everything") {
			t.Fatalf("panic %v does not carry the strategy's reason", r)
		}
	}()
	cfg := DefaultConfig()
	cfg.Shards = 2
	NewStream(topology.NewGrid(3, 3), NewSingleJob(workload.NewFib(5)), globalStrat{}, cfg)
}

type globalStrat struct{ spread }

func (globalStrat) Name() string           { return "global-test" }
func (globalStrat) SequentialOnly() string { return "global-test reads everything" }

// TestShardConfigRejections pins validate's incompatibility panics.
func TestShardConfigRejections(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Shards = 2
		return cfg
	}
	cases := map[string]Config{}
	cfg := base()
	cfg.Pool = &Pool{}
	cases["pool"] = cfg
	cfg = base()
	cfg.Shards = -1
	cases["negative"] = cfg
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Shards with %s did not panic", name)
				}
			}()
			NewStream(topology.NewGrid(3, 3), NewSingleJob(workload.NewFib(5)), spread{}, cfg)
		})
	}
}

// boom is spread whose nodes on the PEs in pes panic with their value
// on the first load word they learn at time at. Load broadcasts are
// unstaggered and the machine is idle by then, so every listed PE
// learns one at exactly at: the panics land in one window whatever
// shards own the PEs. fired counts the panics raised.
type boom struct {
	spread
	at    sim.Time
	pes   map[int]string
	fired *atomic.Int32
}

func (b boom) NewNode(pe *PE) NodeStrategy {
	n := b.spread.NewNode(pe)
	if v, ok := b.pes[pe.ID()]; ok {
		return boomNode{n, pe, b, v}
	}
	return n
}

type boomNode struct {
	NodeStrategy
	pe  *PE
	b   boom
	val string
}

func (boomNode) WantsLoadEvents() bool { return true }

func (n boomNode) HandleEvent(ev Event) {
	if ev.Kind == NeighborLoadChanged && n.pe.Now() == n.b.at {
		n.b.fired.Add(1)
		panic(fmt.Sprintf("%s@%d", n.val, n.pe.Now()))
	}
	n.NodeStrategy.HandleEvent(ev)
}

// settle waits for the goroutine count to fall back to base — a stopped
// worker may still be returning when Run does — and checks that no
// shard goroutine is still counted against the barrier's spin gate.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 2000 {
			t.Fatalf("%s: %d goroutines remain, baseline %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	if n := liveShards.Load(); n != 0 {
		t.Fatalf("%s: %d shard goroutines still counted live", what, n)
	}
}

// TestShardPanicAtBarrier pins the barrier's panic rule: a panic in
// any shard's window, the caller-run shard 0 included, comes out of Run
// with its value once every shard has finished the window; when several
// shards panic in one window the lowest shard's value wins on every
// run; and no worker goroutine outlives Run, however the run ends.
func TestShardPanicAtBarrier(t *testing.T) {
	const k, at = 4, 101
	topo := topology.NewGrid(4, 4)
	first := topo.Partition(k).Starts // first PE of each shard
	run := func(pes map[int]string, maxT sim.Time) (st *Stats, val any, fired int32) {
		cfg := DefaultConfig()
		cfg.Shards = k
		cfg.StaggerTicks = false
		if maxT > 0 {
			cfg.MaxTime = maxT
		}
		b := boom{at: at, pes: pes, fired: new(atomic.Int32)}
		defer func() { val, fired = recover(), b.fired.Load() }()
		// One small job, long done by time at; the second arrives after it.
		return NewStream(topo, NewFixedInterval(workload.NewFib(4), 400, 2), b, cfg).Run(), nil, 0
	}
	base := runtime.NumGoroutine()
	if st, val, _ := run(nil, 0); val != nil || !st.Completed {
		t.Fatalf("clean run: panic %v, completed %v", val, st != nil && st.Completed)
	}
	settle(t, base, "completed run")
	if st, val, _ := run(nil, 300); val != nil || st.Completed {
		t.Fatalf("MaxTime run: panic %v, completed %v", val, st != nil && st.Completed)
	}
	settle(t, base, "MaxTime cut-off")
	cases := []struct {
		name   string
		shards []int
		want   string
	}{
		{"shard0", []int{0}, "s0@101"},
		{"worker", []int{2}, "s2@101"},
		{"shards0+3", []int{3, 0}, "s0@101"},
		{"shards1+3", []int{3, 1}, "s1@101"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine() // this subtest runs on a goroutine of its own
			pes := map[int]string{}
			for _, s := range c.shards {
				pes[first[s]] = fmt.Sprintf("s%d", s)
			}
			for rep := 0; rep < 10; rep++ {
				_, val, fired := run(pes, 0)
				if val != c.want || int(fired) != len(c.shards) {
					t.Fatalf("run %d: panic %v after %d shard panics, want %q after %d", rep, val, fired, c.want, len(c.shards))
				}
				settle(t, base, "panicking run")
			}
		})
	}
}

// TestInjSojournBucketsBounded pins the SeriesBound residual fix: the
// raw injection-window buckets behind InjSojournWindows stop growing
// past the cap — they merge pairwise and double their stride — while
// conserving every observation.
func TestInjSojournBucketsBounded(t *testing.T) {
	run := func(bound int) (*Machine, *Stats) {
		cfg := DefaultConfig()
		cfg.SampleInterval = 5
		cfg.SeriesBound = bound
		// The injection-window buckets exist only on scenario runs (they
		// feed recovery analysis); a brief mid-run slowdown makes one.
		cfg.Scenario = scenario.MustParse("slow:pes=0:x=0.5@t=200,restore@t=400")
		m := NewStream(topology.NewGrid(3, 3), NewFixedInterval(workload.NewFib(8), 40, 40), spread{}, cfg)
		return m, m.Run()
	}
	exact, est := run(0)
	boundM, bst := run(4)
	if est.JobsDone != bst.JobsDone || est.JobsDone == 0 {
		t.Fatalf("jobs done diverged: %d vs %d", est.JobsDone, bst.JobsDone)
	}
	if len(boundM.injSoj) > 4 {
		t.Fatalf("bounded run retains %d injection buckets, cap 4", len(boundM.injSoj))
	}
	if len(exact.injSoj) <= 4 {
		t.Fatalf("exact run kept only %d buckets — the case does not exercise thinning", len(exact.injSoj))
	}
	if boundM.injStride < 2 || boundM.injStride&(boundM.injStride-1) != 0 {
		t.Fatalf("bounded stride %d: want a power of two >= 2", boundM.injStride)
	}
	flat := func(m *Machine) []float64 {
		var all []float64
		for _, b := range m.injSoj {
			all = append(all, b...)
		}
		sort.Float64s(all)
		return all
	}
	if !reflect.DeepEqual(flat(exact), flat(boundM)) {
		t.Fatal("thinning lost or altered sojourn observations")
	}
	if got := bst.InjSojournWindows.Len(); got > 4 {
		t.Fatalf("finalized InjSojournWindows has %d points, cap 4", got)
	}
}
