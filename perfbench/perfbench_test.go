package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"cwnsim/internal/core"
	"cwnsim/internal/machine"
)

// runShort runs the short variant of one workload and returns the
// parsed JSON line and the whole output.
func runShort(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append([]string{"--short", "--seconds", "0", "--spans", t.TempDir()}, args...)
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return res, out.String()
}

// printedDigest returns the round digest a run printed.
func printedDigest(t *testing.T, out string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) == 2 && f[0] == "digest" {
			return f[1]
		}
	}
	t.Fatalf("no digest line in\n%s", out)
	return ""
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %s is not one of %v", w.Name, workloadNames)
		}
	}
	same := func(what string, file []struct{ Name, Unit string }, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(file), len(prog))
			return
		}
		for i, m := range prog {
			if file[i].Name != m.name || file[i].Unit != m.unit {
				t.Errorf("%s #%d: BENCHMARK.json %s %s, program %s %s", what, i, file[i].Name, file[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// TestEveryMetricPrints runs each workload untraced and traced, and
// checks that every metric is printed with its unit and carried by the
// JSON line, and that the traced run reproduced the untraced digest.
func TestEveryMetricPrints(t *testing.T) {
	for _, w := range workloadNames {
		digests := map[string]string{}
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			res, out := runShort(t, "--workload", w, "--trace", trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics in the JSON line, want %d", w, trace, len(res.Metrics), len(defs))
			}
			printed := append(slices.Clone(defs), metricDef{"failed_frac", "ratio"})
			if trace == "0" {
				printed = append(printed, alsoPrinted...)
			}
			if w == "paper-sweep" && trace == "0" {
				printed = append(printed, sweepOnly...)
			}
			for _, m := range printed {
				if !strings.Contains(out, "\n"+m.name+" ") || !strings.Contains(out, " "+m.unit) {
					t.Errorf("%s trace=%s: %s [%s] not printed", w, trace, m.name, m.unit)
				}
			}
			for _, m := range defs {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%s: JSON metric %s = %+v, want unit %s", w, trace, m.name, got, m.unit)
				}
			}
			digests[trace] = printedDigest(t, out)
		}
		if digests["0"] != digests["1"] {
			t.Errorf("%s: untraced digest %s, traced run %s", w, digests["0"], digests["1"])
		}
	}
}

// TestSeedReachesInputs checks that the default seed reproduces the
// recorded digests and that another seed changes every workload's.
func TestSeedReachesInputs(t *testing.T) {
	var rec recorded
	if err := json.Unmarshal(digestsJSON, &rec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		_, out := runShort(t, "--workload", w, "--seed", "1")
		if got := printedDigest(t, out); got != rec.Short[w] {
			t.Errorf("%s seed 1: digest %s, recorded %s", w, got, rec.Short[w])
		}
		_, out = runShort(t, "--workload", w, "--seed", "2")
		if got := printedDigest(t, out); got == rec.Short[w] {
			t.Errorf("%s: seed 2 reproduced the seed-1 digest %s", w, got)
		}
	}
}

func TestRefusesToOversubscribe(t *testing.T) {
	if err := checkThreads(newFaultTorus64K2(1, true), 1); err == nil {
		t.Error("fault-torus64-k2 accepted nproc=1")
	}
	if err := checkThreads(newStreamGrid64GM(1, true), 1); err != nil {
		t.Errorf("stream-grid64-gm refused nproc=1: %v", err)
	}
}

func TestWrapperForwardsCapabilities(t *testing.T) {
	s, _ := wrapStrategy(core.NewIdeal())
	if _, ok := s.(machine.SequentialOnly); !ok {
		t.Error("wrapping ideal dropped SequentialOnly")
	}
	s, _ = wrapStrategy(core.NewCWN(9, 2))
	if _, ok := s.(machine.SequentialOnly); ok {
		t.Error("wrapping CWN added SequentialOnly")
	}
}

func TestSubSeedIsPositive(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(-3); seed < 50; seed++ {
		for i := 0; i < 20; i++ {
			s := subSeed(seed, 0, i)
			if s <= 0 || seen[s] {
				t.Fatalf("subSeed(%d, 0, %d) = %d (repeated: %t)", seed, i, s, seen[s])
			}
			seen[s] = true
		}
	}
}
