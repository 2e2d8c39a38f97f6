package workload

import (
	"testing"
	"testing/quick"
)

func TestSequentialTime(t *testing.T) {
	// fib(5): 15 goals, 7 inner nodes with 2 kids each.
	tr := NewFib(5)
	inner := tr.Count() - tr.Leaves()
	want := int64(tr.Count())*10 + int64(inner)*2*5
	if got := tr.SequentialTime(10, 5); got != want {
		t.Errorf("T1 = %d, want %d", got, want)
	}
}

func TestCriticalPathChain(t *testing.T) {
	// A chain has zero parallelism: T∞ differs from T1 only in combine
	// accounting (each inner node has one child: T1 charges 1 combine,
	// the chain also passes through it).
	tr := NewChain(100)
	t1 := tr.SequentialTime(10, 5)
	cp := tr.CriticalPath(10, 5)
	if cp != t1 {
		t.Errorf("chain: T∞ %d != T1 %d", cp, t1)
	}
	if s := tr.MaxSpeedup(10, 5); s != 1.0 {
		t.Errorf("chain max speedup = %f, want 1", s)
	}
}

func TestCriticalPathFullBinary(t *testing.T) {
	// Depth-d full binary tree: T∞ = (d+1)*grain + d*combine.
	tr := NewFullBinary(6)
	want := int64(7)*10 + int64(6)*5
	if got := tr.CriticalPath(10, 5); got != want {
		t.Errorf("T∞ = %d, want %d", got, want)
	}
	// Plenty of parallelism: bound far above 1.
	if s := tr.MaxSpeedup(10, 5); s < 10 {
		t.Errorf("binary tree max speedup = %f, want >> 1", s)
	}
}

func TestCriticalPathLeaf(t *testing.T) {
	tr := NewFib(0)
	if got := tr.CriticalPath(10, 5); got != 10 {
		t.Errorf("leaf T∞ = %d, want 10", got)
	}
	if tr.MaxSpeedup(10, 5) != 1 {
		t.Error("leaf max speedup != 1")
	}
}

func TestCriticalPathDeepNoOverflow(t *testing.T) {
	tr := NewChain(200000)
	if tr.CriticalPath(10, 5) <= 0 {
		t.Fatal("deep chain critical path failed")
	}
}

func TestQuickCriticalPathBounds(t *testing.T) {
	// For any tree: T∞ <= T1, and T∞ >= (depth+1)*grain.
	f := func(seed int64, raw uint8) bool {
		goals := int(raw)%400 + 1
		tr := NewRandom(RandomConfig{Seed: seed, Goals: goals, MaxKids: 4, MaxWork: 2, LeafValue: 1})
		t1 := tr.SequentialTime(10, 5)
		cp := tr.CriticalPath(10, 5)
		return cp <= t1 && cp >= int64(tr.Depth()+1)*10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFibCriticalPathRecurrence(t *testing.T) {
	// span(n) = grain + span(n-1) + combine for n >= 2 (left child is
	// always the deeper one).
	for n := 2; n <= 12; n++ {
		a := NewFib(n).CriticalPath(10, 5)
		b := NewFib(n-1).CriticalPath(10, 5)
		if a != 10+b+5 {
			t.Errorf("fib(%d): span %d != grain + span(fib(%d))=%d + combine", n, a, n-1, b)
		}
	}
}

// spanRef is the textbook recursive critical path, the reference the
// iterative slice-indexed CriticalPath must agree with.
func spanRef(t *Task, grain, combine int64) int64 {
	own := grain * int64(t.Work)
	if t.IsLeaf() {
		return own
	}
	var worst int64
	for _, k := range t.Kids {
		worst = max(worst, spanRef(k, grain, combine))
	}
	return own + worst + combine
}

func TestCriticalPathMatchesRecursiveReference(t *testing.T) {
	trees := []*Tree{NewFib(1), NewFib(9), NewFib(14), NewDC(1, 1), NewDC(1, 37), NewDC(5, 200),
		NewRandom(RandomConfig{Seed: 3, Goals: 300, MaxKids: 4, MaxWork: 3, LeafValue: 1})}
	for _, tr := range trees {
		for _, gc := range [][2]int64{{10, 5}, {1, 0}, {7, 13}} {
			if got, want := tr.CriticalPath(gc[0], gc[1]), spanRef(tr.Root, gc[0], gc[1]); got != want {
				t.Errorf("%s grain=%d combine=%d: CriticalPath %d, recursive %d", tr.Name, gc[0], gc[1], got, want)
			}
		}
	}
}
