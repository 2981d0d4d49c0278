package experiments

import (
	"bytes"
	"strings"
	"testing"

	"cloudskulk/internal/telemetry"
)

// TestCloudLoadSmoke: the quick-scale run's aggregate ledger adds up and
// every interesting control-plane path fires somewhere in the population.
func TestCloudLoadSmoke(t *testing.T) {
	o := TestOptions()
	r, err := CloudLoad(o, QuickCloudLoadConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.Config
	if want := cfg.Cells * cfg.OpsPerCell; r.Issued != want {
		t.Fatalf("issued = %d, want %d", r.Issued, want)
	}
	if r.Mutations+r.Reads != r.Issued {
		t.Fatalf("mutations %d + reads %d != issued %d", r.Mutations, r.Reads, r.Issued)
	}
	if got := r.Accepted + r.QuotaRejects + r.AdmissionRejects + r.OtherRejects; got != r.Mutations {
		t.Fatalf("submit outcomes %d != mutations %d", got, r.Mutations)
	}
	if r.Succeeded+r.Failed != r.Accepted {
		t.Fatalf("terminal jobs %d+%d != accepted %d", r.Succeeded, r.Failed, r.Accepted)
	}
	if r.Accepted == 0 || r.QuotaRejects == 0 || r.AdmissionRejects == 0 {
		t.Fatalf("a reject path never fired: %+v", r)
	}
	if r.P50us <= 0 || r.P99us < r.P50us {
		t.Fatalf("implausible latency percentiles: p50=%d p99=%d", r.P50us, r.P99us)
	}
	if r.SurvivingVMs == 0 || r.UtilizationPct == 0 {
		t.Fatalf("degenerate fleet population: %+v", r)
	}
	if !strings.Contains(r.Render(), "admission rejects") {
		t.Fatal("render missing admission row")
	}
}

// TestCloudLoadWorkerInvariance: the quick-scale artefact is byte-identical
// serial and wide, and so is the telemetry export accumulated across cells.
func TestCloudLoadWorkerInvariance(t *testing.T) {
	render := func(workers int) (string, string) {
		o := TestOptions()
		o.Workers = workers
		o.Telemetry = telemetry.NewRegistry()
		r, err := CloudLoad(o, QuickCloudLoadConfig())
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := o.Telemetry.WriteJSONLines(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString(o.Telemetry.PromText())
		return r.Render(), b.String()
	}
	serialArt, serialTele := render(1)
	wideArt, wideTele := render(8)
	if serialArt != wideArt {
		t.Errorf("artefact depends on worker count:\n--- serial ---\n%s\n--- wide ---\n%s", serialArt, wideArt)
	}
	if serialTele != wideTele {
		t.Error("telemetry export depends on worker count")
	}
}
