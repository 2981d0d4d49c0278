package cloudskulk_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cloudskulk"
	"cloudskulk/internal/experiments"
)

// TestPublicAPIQuickstart exercises the README's quick-start flow through
// the public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	cloud, err := cloudskulk.New(1, cloudskulk.WithGuestMemMB(32))
	if err != nil {
		t.Fatal(err)
	}
	rk, err := cloud.InstallRootkit(cloudskulk.InstallConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rk.Victim.Level() != cloudskulk.L2 {
		t.Fatalf("victim level = %v", rk.Victim.Level())
	}
	cloud.Host.KSM().Start()
	det := cloudskulk.NewDedupDetector(cloud.Host)
	det.Pages = 50
	agent := cloudskulk.NewGuestAgent(rk.Victim, 2048)
	agent.OnLoad = rk.InterceptFilePushes(8192)
	verdict, ev, err := det.Run(agent)
	if err != nil {
		t.Fatal(err)
	}
	if verdict != cloudskulk.VerdictNested {
		t.Fatalf("verdict = %v", verdict)
	}
	if ev.T2.Mean() < ev.T0.Mean() {
		t.Fatal("evidence shape wrong")
	}
}

func TestPublicAPICleanDetection(t *testing.T) {
	cloud, err := cloudskulk.New(2, cloudskulk.WithGuestMemMB(32))
	if err != nil {
		t.Fatal(err)
	}
	cloud.Host.KSM().Start()
	det := cloudskulk.NewDedupDetector(cloud.Host)
	det.Pages = 50
	verdict, _, err := det.Run(cloudskulk.NewGuestAgent(cloud.Victim, 2048))
	if err != nil {
		t.Fatal(err)
	}
	if verdict != cloudskulk.VerdictClean {
		t.Fatalf("verdict = %v", verdict)
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	o := cloudskulk.QuickExperimentOptions()
	if out := experiments.Table1CVE().Render(); !strings.Contains(out, "TABLE I") {
		t.Fatal("table1")
	}
	if _, err := experiments.Figure2KernelCompile(o); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Figure3Netperf(o); err != nil {
		t.Fatal(err)
	}
	if got, err := experiments.Table2Arithmetic(o); err != nil || len(got.Ops) != 10 {
		t.Fatalf("table2: %v", err)
	}
	if got, err := experiments.Table3Processes(o); err != nil || len(got.Ops) != 8 {
		t.Fatalf("table3: %v", err)
	}
	if got, err := experiments.Table4FileOps(o); err != nil || len(got.Ops) != 8 {
		t.Fatalf("table4: %v", err)
	}
}

func TestPublicAPIExperimentExtensions(t *testing.T) {
	o := cloudskulk.QuickExperimentOptions()
	if res, err := experiments.Figure4Migration(o); err != nil || len(res.Cells) != 6 {
		t.Fatalf("fig4: %v", err)
	}
	if res, err := cloudskulk.Figure5DetectionClean(o); err != nil ||
		res.Verdict != cloudskulk.VerdictClean {
		t.Fatalf("fig5: %v %v", res.Verdict, err)
	}
	if res, err := cloudskulk.Figure6DetectionInfected(o); err != nil ||
		res.Verdict != cloudskulk.VerdictNested {
		t.Fatalf("fig6: %v %v", res.Verdict, err)
	}
	if res, err := experiments.MultiTenantSurvey(o, 2, 0); err != nil || !res.Correct() {
		t.Fatalf("survey: %v", err)
	}
	if res, err := experiments.RemediationDrill(o); err != nil ||
		res.PostVerdict != cloudskulk.VerdictClean {
		t.Fatalf("remediation: %v", err)
	}
	if res, err := experiments.BaselineComparison(o); err != nil || len(res.Rows) != 3 {
		t.Fatalf("baselines: %v", err)
	}
	if res, err := experiments.ArmsRaceSyncCountermeasure(o); err != nil || len(res.Rows) != 6 {
		t.Fatalf("armsrace: %v", err)
	}
	if res, err := experiments.AblationTimingGap(o, []float64{31}); err != nil ||
		len(res.GapRatios) != 1 {
		t.Fatalf("timing gap: %v", err)
	}
	if res, err := experiments.AblationMigrationFeatures(o); err != nil ||
		len(res.Variants) != 4 {
		t.Fatalf("features: %v", err)
	}
	if res, err := experiments.AblationPrePostCopy(o); err != nil ||
		res.PreCopySeconds <= 0 {
		t.Fatalf("prepost: %v", err)
	}
	if res, err := experiments.AblationDirtyRate(o, []float64{100, 4000}); err != nil ||
		len(res.Seconds) != 2 {
		t.Fatalf("dirty rate: %v", err)
	}
	if res, err := experiments.AblationProbeSize(o, []int{5}); err != nil ||
		len(res.Verdicts) != 1 {
		t.Fatalf("probe size: %v", err)
	}
	if res, err := experiments.AblationKSMWait(o, []time.Duration{10 * time.Second}); err != nil ||
		len(res.Verdicts) != 1 {
		t.Fatalf("ksm wait: %v", err)
	}
	if res, err := experiments.TimeToDetect(o, 5*time.Minute); err != nil ||
		res.TimeToDetect <= 0 {
		t.Fatalf("ttd: %v", err)
	}
	if res, err := experiments.AblationExitMultiplier(o, []int{18}); err != nil || len(res.PipeL2Us) != 1 {
		t.Fatalf("exit multiplier: %v", err)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	cloud, err := cloudskulk.New(3, cloudskulk.WithGuestMemMB(32))
	if err != nil {
		t.Fatal(err)
	}
	db := cloudskulk.NewFingerprintDB()
	db.Baseline(cloud.Victim)
	if ok, err := db.Check(cloud.Victim); err != nil || !ok {
		t.Fatalf("fingerprint self-check %v %v", ok, err)
	}
	if got := (cloudskulk.VMCSScanner{Host: cloud.Host}).Scan(); len(got) != 0 {
		t.Fatalf("clean host VMCS findings: %v", got)
	}
}

func TestPublicAPIServices(t *testing.T) {
	cloud, err := cloudskulk.New(4, cloudskulk.WithGuestMemMB(32))
	if err != nil {
		t.Fatal(err)
	}
	rk, err := cloud.InstallRootkit(cloudskulk.InstallConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sniffer := cloudskulk.NewSniffer()
	if err := rk.AttachTap(sniffer); err != nil {
		t.Fatal(err)
	}
	filter := cloudskulk.NewActiveFilter(cloudskulk.FilterRule{
		Port:   22,
		Match:  []byte("drop-me"),
		Action: cloudskulk.ActionDrop,
	})
	if err := rk.AttachTap(filter); err != nil {
		t.Fatal(err)
	}
}

// TestEveryBackendDetectsTheRootkit is the cross-backend smoke test: the
// KSM write-timing detector must flag the nested guest on every
// registered backend, not just the paper's testbed calibration — the
// attack and the defence are mechanics, the backend only moves the
// constants.
func TestEveryBackendDetectsTheRootkit(t *testing.T) {
	names := cloudskulk.Backends()
	if len(names) < 3 {
		t.Fatalf("want >= 3 registered backends, got %v", names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			cloud, err := cloudskulk.New(11,
				cloudskulk.WithGuestMemMB(32), cloudskulk.WithBackend(name))
			if err != nil {
				t.Fatal(err)
			}
			if got := cloud.Host.Backend().Name; got != name {
				t.Fatalf("host built on backend %q, want %q", got, name)
			}
			rk, err := cloud.InstallRootkit(cloudskulk.InstallConfig{})
			if err != nil {
				t.Fatal(err)
			}
			cloud.Host.KSM().Start()
			det := cloudskulk.NewDedupDetector(cloud.Host)
			det.Pages = 50
			agent := cloudskulk.NewGuestAgent(rk.Victim, 2048)
			agent.OnLoad = rk.InterceptFilePushes(8192)
			verdict, _, err := det.Run(agent)
			if err != nil {
				t.Fatal(err)
			}
			if verdict != cloudskulk.VerdictNested {
				t.Fatalf("backend %s: verdict = %v, want nested", name, verdict)
			}
		})
	}
}

// TestPublicBackendAPI exercises the backend surface of the facade:
// lookup, the typed unknown-name error from both the cloud and fleet
// constructors, and per-host fleet overrides.
func TestPublicBackendAPI(t *testing.T) {
	b, err := cloudskulk.LookupBackend("")
	if err != nil || b.Name != cloudskulk.DefaultBackend {
		t.Fatalf("LookupBackend(\"\") = %v, %v", b.Name, err)
	}
	if _, err := cloudskulk.New(1, cloudskulk.WithBackend("xen-4.1")); !errors.Is(err, cloudskulk.ErrUnknownBackend) {
		t.Fatalf("New with unknown backend: %v", err)
	}
	if _, err := cloudskulk.NewFleet(1, cloudskulk.WithFleetBackend("xen-4.1")); !errors.Is(err, cloudskulk.ErrUnknownBackend) {
		t.Fatalf("NewFleet with unknown backend: %v", err)
	}
	if _, err := cloudskulk.NewFleet(1, cloudskulk.WithHosts(2),
		cloudskulk.WithHostBackend("h99", "hvf-m2")); !errors.Is(err, cloudskulk.ErrUnknownHost) {
		t.Fatalf("WithHostBackend on unknown host: %v", err)
	}
	fl, err := cloudskulk.NewFleet(1, cloudskulk.WithHosts(2),
		cloudskulk.WithHostBackend("h01", "hvf-m2"))
	if err != nil {
		t.Fatal(err)
	}
	h00, _ := fl.Host("h00")
	h01, _ := fl.Host("h01")
	if h00.Backend().Name != cloudskulk.DefaultBackend || h01.Backend().Name != "hvf-m2" {
		t.Fatalf("per-host backends = %q/%q", h00.Backend().Name, h01.Backend().Name)
	}
}

// TestPublicTelemetryAPI exercises the telemetry facade: a registry built
// here flows through a testbed via WithTelemetry and through a fleet via
// WithFleetTelemetry, and both export paths produce sorted, non-empty
// output.
func TestPublicTelemetryAPI(t *testing.T) {
	reg := cloudskulk.NewTelemetryRegistry()
	if _, err := cloudskulk.New(1, cloudskulk.WithGuestMemMB(32),
		cloudskulk.WithTelemetry(reg)); err != nil {
		t.Fatal(err)
	}
	fl, err := cloudskulk.NewFleet(1, cloudskulk.WithHosts(2),
		cloudskulk.WithFleetTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.StartGuest("h00", "web", 32); err != nil {
		t.Fatal(err)
	}
	text := reg.PromText()
	for _, want := range []string{"kvm_vms_launched_total", "fleet_placements_total 1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in export:\n%s", want, text)
		}
	}
	var b strings.Builder
	if err := reg.WriteJSONLines(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"type":"counter"`) {
		t.Fatalf("JSON-lines export empty:\n%s", b.String())
	}
}
