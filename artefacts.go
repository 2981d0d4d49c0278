package cloudskulk

import (
	"time"

	"cloudskulk/internal/experiments"
	"cloudskulk/internal/scenario"
)

// Artefact is one rendered output of the evaluation: a paper table or
// figure, a discussion experiment, or a scale run. Run renders it at the
// given options; quick selects the artefact's small sweep where it has
// one (experiments -scale quick).
type Artefact struct {
	Name string
	Run  func(o ExperimentOptions, quick bool) (string, error)
}

// Artefacts is the evaluation in the order cmd/experiments prints it. The
// golden-hash test pins rows of exactly this table.
var Artefacts = []Artefact{
	{"table1", func(ExperimentOptions, bool) (string, error) {
		return experiments.Table1CVE().Render(), nil
	}},
	{"table1full", func(ExperimentOptions, bool) (string, error) {
		return experiments.Table1CVE().RenderFull(), nil
	}},
	{"fig2", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.Figure2KernelCompile(o)
		return rendered(r.Render, err)
	}},
	{"fig3", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.Figure3Netperf(o)
		return rendered(r.Render, err)
	}},
	{"fig4", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.Figure4Migration(o)
		return rendered(r.Render, err)
	}},
	{"table2", func(o ExperimentOptions, _ bool) (string, error) {
		return experiments.Table2Arithmetic(o).Render(), nil
	}},
	{"table3", func(o ExperimentOptions, _ bool) (string, error) {
		return experiments.Table3Processes(o).Render(), nil
	}},
	{"table4", func(o ExperimentOptions, _ bool) (string, error) {
		return experiments.Table4FileOps(o).Render(), nil
	}},
	{"fig5", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.Figure5DetectionClean(o)
		return rendered(r.Render, err)
	}},
	{"fig6", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.Figure6DetectionInfected(o)
		return rendered(r.Render, err)
	}},
	{"baselines", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.BaselineComparison(o)
		return rendered(r.Render, err)
	}},
	{"armsrace", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.ArmsRaceSyncCountermeasure(o)
		return rendered(r.Render, err)
	}},
	{"armsrace-matrix", func(o ExperimentOptions, _ bool) (string, error) {
		// Strategies × detectors × every registered backend, or just
		// o.Backend when one is set.
		cfg := scenario.MatrixConfig{Seed: o.Seed, GuestMemMB: 16, Workers: o.Workers, OnProgress: o.OnProgress}
		if o.Backend != "" {
			cfg.Backends = []string{o.Backend}
		}
		r, err := scenario.RunMatrix(cfg)
		return rendered(r.Render, err)
	}},
	{"survey", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.MultiTenantSurvey(o, 3, 1)
		return rendered(r.Render, err)
	}},
	{"remediation", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.RemediationDrill(o)
		return rendered(r.Render, err)
	}},
	{"watchdog", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.TimeToDetect(o, 10*time.Minute)
		return rendered(r.Render, err)
	}},
	{"fleetstorm", func(o ExperimentOptions, quick bool) (string, error) {
		hosts, conc, infected := []int{2, 4, 8}, []int{1, 2, 4}, []float64{0.25}
		if quick {
			hosts, conc, infected = []int{4}, []int{2}, []float64{0.5}
		}
		r, err := experiments.FleetMigrationStorm(o, hosts, conc, infected)
		return rendered(r.Render, err)
	}},
	{"cloudload", func(o ExperimentOptions, quick bool) (string, error) {
		cfg := experiments.DefaultCloudLoadConfig()
		if quick {
			cfg = experiments.QuickCloudLoadConfig()
		}
		r, err := experiments.CloudLoad(o, cfg)
		return rendered(r.Render, err)
	}},
	{"megastorm", func(o ExperimentOptions, quick bool) (string, error) {
		cfg := experiments.DefaultMegaStormConfig()
		if quick {
			cfg = experiments.QuickMegaStormConfig()
		}
		r, err := experiments.MegaStorm(o, cfg)
		return rendered(r.Render, err)
	}},
	{"ablate-exitmult", func(o ExperimentOptions, _ bool) (string, error) {
		return experiments.AblationExitMultiplier(o, []int{1, 4, 9, 18, 36, 72}).Render(), nil
	}},
	{"ablate-dirtyrate", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.AblationDirtyRate(o, []float64{100, 2000, 4000, 6000, 7000, 7500, 7900})
		return rendered(r.Render, err)
	}},
	{"ablate-prepost", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.AblationPrePostCopy(o)
		return rendered(r.Render, err)
	}},
	{"ablate-probesize", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.AblationProbeSize(o, []int{1, 10, 100, 400})
		return rendered(r.Render, err)
	}},
	{"ablate-ksmwait", func(o ExperimentOptions, quick bool) (string, error) {
		waits := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second, 15 * time.Second}
		if quick {
			waits = []time.Duration{2 * time.Second, 10 * time.Second}
		}
		r, err := experiments.AblationKSMWait(o, waits)
		return rendered(r.Render, err)
	}},
	{"ablate-timinggap", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.AblationTimingGap(o, []float64{31, 10, 4, 1})
		return rendered(r.Render, err)
	}},
	{"ablate-migfeatures", func(o ExperimentOptions, _ bool) (string, error) {
		r, err := experiments.AblationMigrationFeatures(o)
		return rendered(r.Render, err)
	}},
}

// rendered returns the artefact text, or err if the run failed. Taking
// the Render method value rather than the result keeps nil results of
// failed runs unrendered.
func rendered(render func() string, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return render(), nil
}
