package scenario

import (
	"testing"

	"cwnsim/internal/sim"
)

// expandDigest hashes every field an expanded event carries into the
// machine: instant, kind, targets and checkpoint cost.
func expandDigest(s *Script) uint64 {
	h := uint64(14695981039346656037)
	mix := func(w int64) {
		h ^= uint64(w)
		h *= 1099511628211
	}
	for _, e := range s.Events {
		mix(int64(e.At))
		mix(int64(e.Kind))
		mix(int64(len(e.PEs)))
		for _, pe := range e.PEs {
			mix(int64(pe))
		}
		mix(int64(e.Cost))
	}
	return h
}

// TestExpandPinned pins the exact expansion of block- and rack-domain
// crash chaos (with checkpoint ticks), on square and non-square
// machines, so allocation work on the generators cannot change a
// timeline. The goldens were recorded before the domain walk was
// rewritten.
func TestExpandPinned(t *testing.T) {
	cases := []struct {
		spec    string
		numPEs  int
		horizon sim.Time
		events  int
		want    uint64
	}{
		{"chaos:mtbf=400:mttr=200:crash:domain=block:32x32@seed=12345,checkpoint:every=200:cost=1@t=0", 4096, 30000, 271, 0x035e845c8f6df3ed},
		{"chaos:mtbf=300:mttr=150:until=20000:crash:domain=rack:48@seed=9", 1000, 30000, 146, 0x227bece67a6ed410},
		{"chaos:mtbf=250:mttr=120:domain=block:5x3@seed=4", 90, 20000, 140, 0xd8e2dcc89d6aa041},
		{"chaos:mtbf=250:mttr=120:crash:domain=rack:7@seed=21", 50, 20000, 130, 0xb13ce36bab639ef1},
	}
	for _, c := range cases {
		out := MustParse(c.spec).Expand(c.numPEs, c.horizon)
		if got := expandDigest(out); len(out.Events) != c.events || got != c.want {
			t.Errorf("%s on %d PEs: %d events digest %#016x, want %d events digest %#016x",
				c.spec, c.numPEs, len(out.Events), got, c.events, c.want)
		}
	}
}
