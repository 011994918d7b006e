package main

import (
	"encoding/json"
	"os"
	"testing"
)

// testSizes shrink every workload so a run takes a second or two; the
// sparse nets stay above the auto-mode crossover (2048 terminals).
var testSizes = sizes{serveSlots: 60, sparsePool: 2, sparseSinks: 2500}

func run(t *testing.T, name string, seed int64, traced bool) *report {
	t.Helper()
	rep, err := execute(name, seed, 0, traced, testSizes)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s seed %d: correct=%v, %d of %d failed: %v", name, seed, rep.correct, rep.failed, rep.attempted, rep.errs)
	}
	return rep
}

// TestDigestRepeats runs every workload twice with one seed, which must
// give the same trees, and once with another seed, which must pass
// every check too.
func TestDigestRepeats(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := run(t, name, 1, false), run(t, name, 1, false)
			if a.digest != b.digest {
				t.Errorf("seed 1 digests differ: %s vs %s", a.digest, b.digest)
			}
			if c := run(t, name, 2, false); c.digest == a.digest {
				t.Errorf("seeds 1 and 2 share digest %s", a.digest)
			}
		})
	}
}

// TestMetricNames pins the printed metrics to BENCHMARK.json: the
// untraced run prints every end-to-end metric, the traced run every
// per-layer metric, each with its declared unit.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		for _, tc := range []struct {
			traced bool
			want   []def
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			got := run(t, name, 3, tc.traced).metrics
			if len(got) != len(tc.want) {
				t.Fatalf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, tc.traced, len(got), len(tc.want))
			}
			for i, m := range got {
				if m.Name != tc.want[i].Name || m.Unit != tc.want[i].Unit {
					t.Errorf("%s traced=%v: metric %d is %s [%s], BENCHMARK.json says %s [%s]", name, tc.traced, i, m.Name, m.Unit, tc.want[i].Name, tc.want[i].Unit)
				}
			}
		}
	}
}

func TestTailOf(t *testing.T) {
	var s []float64
	for i := 1; i <= 50; i++ {
		s = append(s, float64(i))
	}
	// 39 has 11 samples above it; 40 is the highest with ten beyond.
	if v, _ := tailOf(s, 0); v != 40 {
		t.Errorf("tail of 1..50 = %g, want 40", v)
	}
	if v, _ := tailOf(s[:5], 0); v != 5 {
		t.Errorf("tail of 1..5 = %g, want the maximum 5", v)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	r := tr.recorder()
	r.spans = []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a
		{Name: "c", Parent: 2, Start: 35, End: 45},
	}
	got := tr.spans()
	for i, want := range []int64{50, 30, 20, 10} {
		if got[i].Self != want {
			t.Errorf("span %s self %d, want %d", got[i].Name, got[i].Self, want)
		}
	}
}
