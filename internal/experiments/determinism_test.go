package experiments

import (
	"bytes"
	"strings"
	"testing"

	"cloudskulk/internal/runner"
	"cloudskulk/internal/telemetry"
)

// TestSweepProgressReporting: OnProgress observes every cell of a sweep
// and finishes at done == total.
func TestSweepProgressReporting(t *testing.T) {
	o := TestOptions()
	o.Workers = 4
	var reports int
	var last runner.Progress
	o.OnProgress = func(p runner.Progress) {
		reports++
		last = p
	}
	if _, err := Figure3Netperf(o); err != nil {
		t.Fatal(err)
	}
	wantCells := 3 * o.Runs // levels x runs
	if reports != wantCells {
		t.Fatalf("reports = %d, want %d", reports, wantCells)
	}
	if last.Done != last.Total || last.Total != wantCells {
		t.Fatalf("final progress = %+v, want done == total == %d", last, wantCells)
	}
}

// exportBytes renders the registry's two export formats back to back, so
// a single comparison covers JSON-lines and Prometheus text at once.
func exportBytes(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteJSONLines(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(reg.PromText())
	return b.String()
}

// TestTelemetryExportsDeterministic: the same seed yields byte-identical
// JSON-lines and Prometheus-text exports across independent runs, and the
// worker count does not leak into the metrics even though all cells share
// one registry (counters are order-independent atomic sums).
func TestTelemetryExportsDeterministic(t *testing.T) {
	run := func(workers int) string {
		o := TestOptions()
		o.Workers = workers
		o.Telemetry = telemetry.NewRegistry()
		if _, err := Figure4Migration(o); err != nil {
			t.Fatal(err)
		}
		if _, err := FleetMigrationStorm(o, []int{4}, []int{2}, []float64{0.5}); err != nil {
			t.Fatal(err)
		}
		return exportBytes(t, o.Telemetry)
	}

	serial := run(1)
	again := run(1)
	if serial != again {
		t.Fatalf("same-seed exports differ between runs:\n-- first --\n%s\n-- second --\n%s", serial, again)
	}
	wide := run(8)
	if serial != wide {
		t.Fatalf("exports depend on worker count:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", serial, wide)
	}
	if !strings.Contains(serial, "migrate_completed_total") ||
		!strings.Contains(serial, "fleet_migrations_total") {
		t.Fatalf("expected migration families in export:\n%s", serial)
	}
}

// TestTelemetryDoesNotPerturbResults: attaching a registry must never
// change what an experiment measures — instrumentation is a pure side
// channel off the simulation.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	bare := TestOptions()
	r1, err := Figure4Migration(bare)
	if err != nil {
		t.Fatal(err)
	}
	inst := TestOptions()
	inst.Telemetry = telemetry.NewRegistry()
	r2, err := Figure4Migration(inst)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Render() != r2.Render() {
		t.Fatalf("telemetry changed experiment output:\n-- bare --\n%s\n-- instrumented --\n%s",
			r1.Render(), r2.Render())
	}
}
