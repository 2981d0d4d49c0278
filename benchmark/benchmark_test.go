package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// The benchmark's own driving of each workload must render the facade's
// artefact byte for byte, traced or not, at any worker count.
func TestRenderMatchesFacade(t *testing.T) {
	for _, w := range workloads {
		for _, workers := range []int{1, 2} {
			p := params{seed: 7, workers: workers, quick: true}
			s, err := measureRun(w, p, newTracer(workers == 2, 0))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", w.name, workers, err)
			}
			if len(s.Problems) > 0 {
				t.Errorf("%s workers=%d: failed checks: %v", w.name, workers, s.Problems)
			}
			art, err := w.facade(p)
			if err != nil {
				t.Fatalf("%s facade: %v", w.name, err)
			}
			if s.SHA256 != sha(art) {
				t.Errorf("%s workers=%d: benchmark artefact differs from the facade's", w.name, workers)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.run", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "shard.provision", Start: ms(10), End: ms(60)},
		{ID: 2, Parent: 0, Name: "runner.map", Start: ms(60), End: ms(100)},
		// Two cells on two workers, overlapping from 70 to 90.
		{ID: 3, Parent: 2, Name: "loadgen.run", Start: ms(60), End: ms(90)},
		{ID: 4, Parent: 2, Name: "loadgen.run", Start: ms(70), End: ms(95)},
		{ID: 5, Parent: 3, Name: "report.render", Start: ms(80), End: ms(85)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"unattributed": ms(10), // 100 - 50 - 40
		"shard":        ms(50),
		"runner":       ms(5),  // 40 - union(60..95)
		"loadgen":      ms(50), // (30 - 5) + 25
		"report":       ms(5),
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self[%s] = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d layers, want %d: %v", len(got), len(want), got)
	}
	if c := covered([]span{{Start: ms(0), End: ms(30)}, {Start: ms(50), End: ms(200)}}, ms(10), ms(100)); c != ms(70) {
		t.Errorf("covered with clipping = %v, want 70ms", c)
	}
}

// BENCHMARK.json and the benchmark name the same workloads and metrics,
// with the same units.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	for _, c := range []struct {
		kind  string
		json  []metric
		specs []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", c.kind, len(c.json), len(c.specs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.specs[i].name || m.Unit != c.specs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					c.kind, i, m.Name, m.Unit, c.specs[i].name, c.specs[i].unit)
			}
		}
	}
}

// A traced run reports every per-layer metric, the layers each workload
// exercises read non-zero, and the counts repeat exactly.
func TestTracedRunReportsEveryMetric(t *testing.T) {
	exercised := map[string][]string{
		"megastorm": {"sim.events", "shard.rounds", "shard.delivered", "mem.fork_spawns",
			"migrate.delta_pages", "shard.new_grid_s", "shard.provision_s", "shard.run_s",
			"shard.audit_s", "fleet.provision_us_per_guest", "self.shard_s"},
		"cloudload": {"sim.events", "loadgen.ops", "controlplane.jobs_accepted", "migrate.migrations",
			"migrate.pages_sent", "fleet.new_s", "loadgen.run_s", "cloudload.account_s",
			"controlplane.accept_ratio", "self.loadgen_s"},
		"detect": {"sim.events", "ksm.pages_scanned", "ksm.merges", "migrate.migrations",
			"experiments.new_cloud_s", "core.install_s", "detect.run_s", "ksm.ns_per_page", "self.detect_s"},
	}
	for _, w := range workloads {
		p := params{seed: 1, workers: 2, quick: true}
		plain, err := measureRun(w, p, newTracer(false, 0))
		if err != nil {
			t.Fatal(err)
		}
		traced, err := measureRun(w, p, newTracer(true, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !sameCounts(plain.Counts, traced.Counts) {
			t.Errorf("%s: counts differ between runs: %v vs %v", w.name, plain.Counts, traced.Counts)
		}
		if len(plain.Spans) != 0 {
			t.Errorf("%s: untraced run recorded %d spans", w.name, len(plain.Spans))
		}
		m := medianPerLayer([]sample{plain}, []sample{traced})
		for _, spec := range perLayer {
			v, ok := m[spec.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v, present %t", w.name, spec.name, v, ok)
			}
		}
		for _, name := range exercised[w.name] {
			if m[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m[name])
			}
		}
		var fracs float64
		for _, l := range selfLayers {
			fracs += m["self."+l+"_frac"]
		}
		if math.Abs(fracs-1) > 1e-9 {
			t.Errorf("%s: self-time shares sum to %v, want 1", w.name, fracs)
		}
	}
}
