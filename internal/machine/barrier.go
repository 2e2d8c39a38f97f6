// The window barrier of a sharded run: how the coordinator releases
// the shards into a window and waits for them to finish it. Shard-path
// code like shard.go, and walked by the seqonly analyzer the same way.
//
//simlint:seqonly
package machine

import (
	"runtime"
	"sync/atomic"

	"cwnsim/internal/sim"
)

// spinIters bounds a barrier waiter's polling before it parks, and
// spinYield is how often the poll yields its P (to the GC, or to a
// shard that shares it). Counted in iterations, not wall-clock time:
// the wait never reads a clock. Sized to cover the typical per-window
// finish skew between shards, tens of microseconds.
const (
	spinIters = 1 << 15
	spinYield = 1 << 6
)

// liveShards counts the shard goroutines, coordinators included, of
// every parallel sharded run live in the process. Spinning pays only
// while each of them can hold a P: a run that spins while other runs
// share the Ps (RunAll starts GOMAXPROCS of them) polls for a shard
// that may not be scheduled, so waiters check this count on every
// wait and park at once when it exceeds GOMAXPROCS.
var liveShards atomic.Int32

// parker is one goroutine's slot in the spin-then-park barrier: a
// wake channel with room for one token. unpark is called after ready
// turns true and leaves a token unless one is already waiting, so no
// wake-up is lost. A token can outlive the round that sent it, so it
// only means "check again".
type parker chan struct{}

// wait returns once ready reports true: it polls spinIters times when
// spin is set, then parks until unpark.
func (p parker) wait(spin bool, ready func() bool) {
	if spin {
		for i := 1; i <= spinIters; i++ {
			if ready() {
				return
			}
			if i%spinYield == 0 {
				runtime.Gosched()
			}
		}
	}
	for !ready() {
		<-p
	}
}

// unpark wakes the waiter; call it after making ready true.
func (p parker) unpark() {
	select {
	case p <- struct{}{}:
	default:
	}
}

// spin reports whether a waiter should spin before parking: only
// while every live shard goroutine in the process fits on a P.
func (g *shardGroup) spin() bool {
	return liveShards.Load() <= g.procs
}

// startWorkers starts one persistent goroutine per shard but shard 0.
func (g *shardGroup) startWorkers() {
	g.procs = int32(runtime.GOMAXPROCS(0))
	liveShards.Add(int32(g.k))
	g.coord = make(parker, 1)
	g.workers = make([]parker, g.k-1)
	g.panics = make([]any, g.k)
	for i := range g.workers {
		g.workers[i] = make(parker, 1)
		go g.work(i + 1)
	}
}

// stopWorkers releases the workers with stop set and returns once all
// have seen it; each then exits without touching the machines again.
func (g *shardGroup) stopWorkers() {
	g.stop = true
	g.release()
	g.await()
	liveShards.Add(-int32(g.k))
}

// work is shard s's worker: it runs each released window and arrives.
func (g *shardGroup) work(s int) {
	p := g.workers[s-1]
	for seen := uint64(1); ; seen++ {
		p.wait(g.spin(), func() bool { return g.epoch.Load() == seen })
		stop := g.stop // read before arriving: the coordinator owns it after
		if !stop {
			g.panics[s] = runShard(g.machines[s], g.winEnd)
		}
		if g.pending.Add(-1) == 0 {
			g.coord.unpark()
		}
		if stop {
			return
		}
	}
}

// release starts the next round on every worker: winEnd and stop are
// already written, and the epoch bump publishes them.
func (g *shardGroup) release() {
	g.pending.Store(int32(len(g.workers)))
	g.epoch.Add(1)
	for i := range g.workers {
		g.workers[i].unpark()
	}
}

// await returns once every released worker has arrived.
func (g *shardGroup) await() {
	g.coord.wait(g.spin(), func() bool { return g.pending.Load() == 0 })
}

// runShard advances m to the window end, converting a panic into a
// value so the barrier completes before the coordinator re-raises it.
func runShard(m *Machine, end sim.Time) (err any) {
	defer func() { err = recover() }()
	m.eng.RunUntil(end)
	return nil
}

// runWindow is the barrier: it releases the workers, runs shard 0
// itself and waits for all of them. Every shard finishes the window
// before any panic is re-raised, and the lowest shard's panic wins, so
// which one surfaces does not depend on the thread schedule.
func (g *shardGroup) runWindow(end sim.Time) {
	g.release()
	g.panics[0] = runShard(g.machines[0], end)
	g.await()
	for _, err := range g.panics {
		if err != nil {
			panic(err)
		}
	}
}
