package workload

// Analysis helpers: the classic work/span decomposition. SequentialTime
// is T1 (what one PE needs); CriticalPath is T∞ (the longest dependency
// chain, ignoring communication); their ratio bounds the speedup any
// load-distribution scheme can reach on any number of PEs. The
// experiment harness reports measured speedup against this bound.

// SequentialTime returns T1: every goal's execution plus every response
// integration, serialized.
func (tr *Tree) SequentialTime(grain, combine int64) int64 {
	var total int64
	tr.Walk(func(t *Task) {
		total += grain * int64(t.Work)
		if !t.IsLeaf() {
			total += combine * int64(len(t.Kids))
		}
	})
	return total
}

// CriticalPath returns a lower bound on makespan with unlimited PEs and
// free communication: a node costs its own execution, then waits for
// its slowest child's chain, then integrates at least that child's
// response. Computed iteratively (chains can be 10^5 deep), with each
// task's span kept in a slice indexed by its preorder ID.
func (tr *Tree) CriticalPath(grain, combine int64) int64 {
	// Post-order traversal with an explicit stack.
	type frame struct {
		t       *Task
		visited bool
	}
	span := make([]int64, tr.count)
	stack := []frame{{tr.Root, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !f.visited {
			stack = append(stack, frame{f.t, true})
			for _, k := range f.t.Kids {
				stack = append(stack, frame{k, false})
			}
			continue
		}
		own := grain * int64(f.t.Work)
		if f.t.IsLeaf() {
			span[f.t.ID] = own
			continue
		}
		var worst int64
		for _, k := range f.t.Kids {
			if span[k.ID] > worst {
				worst = span[k.ID]
			}
		}
		span[f.t.ID] = own + worst + combine
	}
	return span[tr.Root.ID]
}

// MaxSpeedup returns T1/T∞ — the parallelism ceiling of the tree under
// the given charge times.
func (tr *Tree) MaxSpeedup(grain, combine int64) float64 {
	cp := tr.CriticalPath(grain, combine)
	if cp == 0 {
		return 1
	}
	return float64(tr.SequentialTime(grain, combine)) / float64(cp)
}
