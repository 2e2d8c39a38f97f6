package scenario

import (
	"math/rand"
	"sort"

	"cwnsim/internal/sim"
)

// chaosSeedSalt decorrelates the chaos generator's stream from the
// run's engine, arrival and observer streams (which salt the same user
// seed): availability sweeps can share one seed across all four
// processes without the failure timeline echoing the arrival timeline.
const chaosSeedSalt int64 = 0x5E3779B97F4A7C15

// Expand resolves the script's generator events — Chaos into concrete
// failure/recovery timelines, Checkpoint into periodic CheckpointTick
// events — on a machine of numPEs processors with measurement horizon
// `horizon`, leaving every other event untouched. A script with no
// generator events is returned as-is (same pointer — the empty scenario
// stays free). Expansion is a pure function of (generator parameters,
// numPEs, horizon): the same seed always yields the identical timeline,
// pinned by regression test.
func (s *Script) Expand(numPEs int, horizon sim.Time) *Script {
	if s.Empty() {
		return s
	}
	any := false
	for _, e := range s.Events {
		if e.Kind == Chaos || e.Kind == Checkpoint {
			any = true
			break
		}
	}
	if !any {
		return s
	}
	// Expand each event first, then concatenate into an exactly sized
	// timeline.
	parts := make([][]Event, len(s.Events))
	n := 0
	for i, e := range s.Events {
		switch e.Kind {
		case Chaos:
			parts[i] = e.generate(numPEs, horizon)
		case Checkpoint:
			parts[i] = e.ticks(horizon)
		default:
			parts[i] = s.Events[i : i+1]
		}
		n += len(parts[i])
	}
	out := &Script{Events: make([]Event, 0, n)}
	for _, p := range parts {
		out.Events = append(out.Events, p...)
	}
	return out
}

// ticks expands a Checkpoint generator into its concrete periodic
// CheckpointTick events: one every Every units of virtual time starting
// at At+Every, up to (exclusive) Until or the horizon.
func (e Event) ticks(horizon sim.Time) []Event {
	until := e.Until
	if until <= 0 || until > horizon {
		until = horizon
	}
	first := e.At + e.Every
	if first >= until {
		return nil
	}
	out := make([]Event, 0, (until-first-1)/e.Every+1)
	for at := first; at < until; at += e.Every {
		out = append(out, Event{At: at, Kind: CheckpointTick, Cost: e.Cost})
	}
	return out
}

// generate draws one chaos event's concrete timeline: failure instants
// arrive as a Poisson process (exponential gaps, mean MTBF) starting at
// the event's At, each striking a uniformly chosen PE and holding it
// down for an exponential repair time (mean MTTR, floor one unit). A PE
// already down when struck absorbs the failure (the draw is still
// consumed, keeping the stream aligned), and a strike that would take
// the last live PE down is skipped — the machine refuses to lose its
// final processor. With a Domain set, each strike targets a uniformly
// chosen failure domain instead of a single PE (see generateDomains);
// the domain-free path is bit-for-bit the pre-domain timeline.
func (e Event) generate(numPEs int, horizon sim.Time) []Event {
	if e.Domain != "" {
		return e.generateDomains(numPEs, horizon)
	}
	rng := rand.New(rand.NewSource(e.Seed ^ chaosSeedSalt))
	until := e.Until
	if until <= 0 || until > horizon {
		until = horizon
	}
	failKind := FailPE
	if e.Crash {
		failKind = CrashPE
	}
	downUntil := make([]float64, numPEs)
	var out []Event
	t := float64(e.At)
	for {
		t += rng.ExpFloat64() * e.MTBF
		at := sim.Time(t)
		if at >= until {
			break
		}
		pe := rng.Intn(numPEs)
		repair := rng.ExpFloat64() * e.MTTR
		if repair < 1 {
			repair = 1
		}
		if downUntil[pe] > t {
			continue // struck while already down: absorbed
		}
		live := 0
		for _, du := range downUntil {
			if du <= t {
				live++
			}
		}
		if live <= 1 {
			continue // never take the last live PE down
		}
		rec := t + repair
		downUntil[pe] = rec
		out = append(out,
			Event{At: at, Kind: failKind, PEs: []int{pe}},
			Event{At: sim.Time(rec), Kind: RecoverPE, PEs: []int{pe}})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// generateDomains draws a correlated-failure timeline: the Poisson gap
// and exponential repair processes are unchanged, but each strike picks
// a uniformly chosen failure domain and takes down every member of it
// that is currently up, all sharing one repair time (correlated
// recovery — the whole blast radius comes back together). A strike
// whose domain is entirely down is absorbed; one that would leave no
// live PE is skipped. Both consume their draws, keeping the stream
// aligned with the draw count, like the single-PE path.
func (e Event) generateDomains(numPEs int, horizon sim.Time) []Event {
	rng := rand.New(rand.NewSource(e.Seed ^ chaosSeedSalt))
	until := e.Until
	if until <= 0 || until > horizon {
		until = horizon
	}
	failKind := FailPE
	if e.Crash {
		failKind = CrashPE
	}
	numDomains := e.domainCount(numPEs)
	downUntil := make([]float64, numPEs)
	var out []Event
	var members []int // the struck domain's PEs, reused across strikes
	t := float64(e.At)
	for {
		t += rng.ExpFloat64() * e.MTBF
		at := sim.Time(t)
		if at >= until {
			break
		}
		d := rng.Intn(numDomains)
		repair := rng.ExpFloat64() * e.MTTR
		if repair < 1 {
			repair = 1
		}
		members = e.appendDomain(members[:0], d, numPEs)
		up := 0
		for _, pe := range members {
			if downUntil[pe] <= t {
				up++
			}
		}
		if up == 0 {
			continue // domain already entirely down: absorbed
		}
		live := 0
		for _, du := range downUntil {
			if du <= t {
				live++
			}
		}
		if live <= up {
			continue // never take the last live PEs down
		}
		strike := make([]int, 0, up)
		for _, pe := range members {
			if downUntil[pe] <= t {
				strike = append(strike, pe)
			}
		}
		rec := t + repair
		for _, pe := range strike {
			downUntil[pe] = rec
		}
		out = append(out,
			Event{At: at, Kind: failKind, PEs: strike},
			Event{At: sim.Time(rec), Kind: RecoverPE, PEs: strike})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// domainCount returns how many failure domains tile a machine of numPEs
// processors under the event's Domain shape. Every PE belongs to
// exactly one domain.
func (e Event) domainCount(numPEs int) int {
	switch e.Domain {
	case "rack":
		return (numPEs + e.DomA - 1) / e.DomA
	case "block":
		side := gridSide(numPEs)
		bw := (side + e.DomA - 1) / e.DomA
		bh := (side + e.DomB - 1) / e.DomB
		return bw * bh
	}
	return numPEs // single-PE domains (unreachable: generate branches first)
}

// appendDomain appends domain d's PE indices to dst in ascending order.
// Racks are contiguous index runs of DomA PEs; blocks are DomA×DomB
// tiles of the row-major gridSide×gridSide layout, clipped to the
// machine.
func (e Event) appendDomain(dst []int, d, numPEs int) []int {
	switch e.Domain {
	case "rack":
		lo := d * e.DomA
		hi := min(lo+e.DomA, numPEs)
		for pe := lo; pe < hi; pe++ {
			dst = append(dst, pe)
		}
		return dst
	case "block":
		side := gridSide(numPEs)
		bw := (side + e.DomA - 1) / e.DomA
		bx, by := d%bw, d/bw
		for y := by * e.DomB; y < (by+1)*e.DomB && y < side; y++ {
			for x := bx * e.DomA; x < (bx+1)*e.DomA && x < side; x++ {
				if pe := y*side + x; pe < numPEs {
					dst = append(dst, pe)
				}
			}
		}
		return dst
	}
	return append(dst, d)
}

// gridSide is the side of the smallest square grid covering numPEs
// processors row-major — block domains tile this grid so every PE falls
// in exactly one block even on non-square machines.
func gridSide(numPEs int) int {
	side := 1
	for side*side < numPEs {
		side++
	}
	return side
}
