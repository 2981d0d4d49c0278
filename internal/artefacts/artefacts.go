// Package artefacts is the evaluation's one table: every paper table and
// figure, discussion experiment, scale run and ablation, each a named row
// that runs its experiment entry point. cmd/experiments prints the rows
// in table order, the golden-hash tests pin rows of it, and the root
// benchmarks run the rows whose work they measure.
package artefacts

import (
	"fmt"
	"time"

	"cloudskulk/internal/experiments"
	"cloudskulk/internal/scenario"
)

// Result is an artefact's outcome; Render draws it as the CLI prints it.
type Result interface{ Render() string }

// Artefact is one row of the table. Run measures it at the given options;
// quick selects the artefact's small sweep where it has one (experiments
// -scale quick).
type Artefact struct {
	Name string
	Run  func(o experiments.Options, quick bool) (Result, error)
}

// All is the evaluation in the order cmd/experiments prints it.
var All = []Artefact{
	{"table1", func(experiments.Options, bool) (Result, error) {
		return experiments.Table1CVE(), nil
	}},
	{"table1full", func(experiments.Options, bool) (Result, error) {
		return fullTable1{experiments.Table1CVE()}, nil
	}},
	{"fig2", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.Figure2KernelCompile(o))
	}},
	{"fig3", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.Figure3Netperf(o))
	}},
	{"fig4", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.Figure4Migration(o))
	}},
	{"table2", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.Table2Arithmetic(o))
	}},
	{"table3", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.Table3Processes(o))
	}},
	{"table4", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.Table4FileOps(o))
	}},
	{"fig5", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.Figure5DetectionClean(o))
	}},
	{"fig6", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.Figure6DetectionInfected(o))
	}},
	{"baselines", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.BaselineComparison(o))
	}},
	{"armsrace", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.ArmsRaceSyncCountermeasure(o))
	}},
	{"armsrace-matrix", func(o experiments.Options, _ bool) (Result, error) {
		// Strategies × detectors × every registered backend, or just
		// o.Backend when one is set.
		cfg := scenario.MatrixConfig{Seed: o.Seed, GuestMemMB: 16, Workers: o.Workers, OnProgress: o.OnProgress}
		if o.Backend != "" {
			cfg.Backends = []string{o.Backend}
		}
		return result(scenario.RunMatrix(cfg))
	}},
	{"survey", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.MultiTenantSurvey(o, 3, 1))
	}},
	{"remediation", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.RemediationDrill(o))
	}},
	{"watchdog", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.TimeToDetect(o, 10*time.Minute))
	}},
	{"fleetstorm", func(o experiments.Options, quick bool) (Result, error) {
		hosts, conc, infected := []int{2, 4, 8}, []int{1, 2, 4}, []float64{0.25}
		if quick {
			hosts, conc, infected = []int{4}, []int{2}, []float64{0.5}
		}
		return result(experiments.FleetMigrationStorm(o, hosts, conc, infected))
	}},
	{"cloudload", func(o experiments.Options, quick bool) (Result, error) {
		cfg := experiments.DefaultCloudLoadConfig()
		if quick {
			cfg = experiments.QuickCloudLoadConfig()
		}
		return result(experiments.CloudLoad(o, cfg))
	}},
	{"megastorm", func(o experiments.Options, quick bool) (Result, error) {
		cfg := experiments.DefaultMegaStormConfig()
		if quick {
			cfg = experiments.QuickMegaStormConfig()
		}
		return result(experiments.MegaStorm(o, cfg))
	}},
	{"ablate-exitmult", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.AblationExitMultiplier(o, []int{1, 4, 9, 18, 36, 72}))
	}},
	{"ablate-dirtyrate", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.AblationDirtyRate(o, []float64{100, 2000, 4000, 6000, 7000, 7500, 7900}))
	}},
	{"ablate-prepost", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.AblationPrePostCopy(o))
	}},
	{"ablate-probesize", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.AblationProbeSize(o, []int{1, 10, 100, 400}))
	}},
	{"ablate-ksmwait", func(o experiments.Options, quick bool) (Result, error) {
		waits := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second, 15 * time.Second}
		if quick {
			waits = []time.Duration{2 * time.Second, 10 * time.Second}
		}
		return result(experiments.AblationKSMWait(o, waits))
	}},
	{"ablate-timinggap", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.AblationTimingGap(o, []float64{31, 10, 4, 1}))
	}},
	{"ablate-migfeatures", func(o experiments.Options, _ bool) (Result, error) {
		return result(experiments.AblationMigrationFeatures(o))
	}},
}

// Run runs the named artefact; names outside the table are an error.
func Run(name string, o experiments.Options, quick bool) (Result, error) {
	for _, a := range All {
		if a.Name == name {
			return a.Run(o, quick)
		}
	}
	return nil, fmt.Errorf("unknown artefact %q", name)
}

// result widens an entry point's (R, error) to the table's row type.
func result[R Result](r R, err error) (Result, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// fullTable1 renders Table I with every CVE identifier in its cell.
type fullTable1 struct{ experiments.Table1Result }

func (r fullTable1) Render() string { return r.RenderFull() }
