package experiments

import (
	"fmt"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/cvedata"
	"cloudskulk/internal/report"
	"cloudskulk/internal/workload"
)

// Table1Result is the VM-escape CVE inventory.
type Table1Result struct {
	Years       []int
	Hypervisors []cvedata.Hypervisor
}

// Table1CVE reproduces Table I from the embedded dataset.
func Table1CVE() Table1Result {
	return Table1Result{
		Years:       cvedata.Years(),
		Hypervisors: cvedata.Hypervisors(),
	}
}

// Render draws Table I (counts per cell plus the totals row, as in the
// paper; the full CVE identifiers are available via cvedata.IDs).
func (r Table1Result) Render() string {
	t := report.Table{
		Title:   "TABLE I: VM escape CVE vulnerabilities reported between 2015 and 2020",
		Headers: []string{"Year"},
	}
	for _, hv := range r.Hypervisors {
		t.Headers = append(t.Headers, string(hv))
	}
	for _, y := range r.Years {
		row := []string{fmt.Sprintf("%d", y)}
		for _, hv := range r.Hypervisors {
			row = append(row, fmt.Sprintf("%d", cvedata.Count(y, hv)))
		}
		t.AddRow(row...)
	}
	totals := []string{"Total"}
	for _, hv := range r.Hypervisors {
		totals = append(totals, fmt.Sprintf("%d", cvedata.TotalFor(hv)))
	}
	t.AddRow(totals...)
	return t.Render()
}

// RenderFull draws Table I with the individual CVE identifiers in each
// cell, matching the paper's presentation.
func (r Table1Result) RenderFull() string {
	t := report.Table{
		Title:   "TABLE I: VM escape CVE vulnerabilities reported between 2015 and 2020 (full)",
		Headers: []string{"Year"},
	}
	for _, hv := range r.Hypervisors {
		t.Headers = append(t.Headers, string(hv))
	}
	for _, y := range r.Years {
		// Rows expand to the tallest cell in the year.
		cells := make([][]string, len(r.Hypervisors))
		height := 1
		for i, hv := range r.Hypervisors {
			cells[i] = cvedata.IDs(y, hv)
			if len(cells[i]) > height {
				height = len(cells[i])
			}
		}
		for line := 0; line < height; line++ {
			row := make([]string, 0, len(r.Hypervisors)+1)
			if line == 0 {
				row = append(row, fmt.Sprintf("%d", y))
			} else {
				row = append(row, "")
			}
			for i := range r.Hypervisors {
				if line < len(cells[i]) {
					row = append(row, cells[i][line])
				} else {
					row = append(row, "")
				}
			}
			t.AddRow(row...)
		}
	}
	totals := []string{"Total"}
	for _, hv := range r.Hypervisors {
		totals = append(totals, fmt.Sprintf("%d", cvedata.TotalFor(hv)))
	}
	t.AddRow(totals...)
	return t.Render()
}

// AblationExitMultiplierResult sweeps the Turtles exit-multiplication
// factor and reports the L2 pipe latency it produces — the knob the whole
// Table III L2 column hangs on.
type AblationExitMultiplierResult struct {
	Multipliers []int
	PipeL2Us    []float64
}

// AblationExitMultiplier sweeps the nested exit multiplier.
func AblationExitMultiplier(o Options, multipliers []int) (AblationExitMultiplierResult, error) {
	b, err := o.resolveBackend()
	if err != nil {
		return AblationExitMultiplierResult{}, err
	}
	var res AblationExitMultiplierResult
	pipe := workload.ProcessOps()[3] // pipe latency
	for _, m := range multipliers {
		model := b.Profile.CPU
		model.ExitMultiplier = m
		cost := model.Cost(pipe, cpu.L2)
		res.Multipliers = append(res.Multipliers, m)
		res.PipeL2Us = append(res.PipeL2Us, cost.Microseconds())
	}
	return res, nil
}

// Render draws the sweep against the paper's measured 65.49 µs.
func (r AblationExitMultiplierResult) Render() string {
	t := report.Table{
		Title:   "Ablation: L2 pipe latency vs nested exit multiplier (paper: 65.49 µs)",
		Headers: []string{"multiplier", "pipe latency L2 (µs)"},
	}
	for i := range r.Multipliers {
		t.AddRow(fmt.Sprintf("%d", r.Multipliers[i]), report.F2(r.PipeL2Us[i]))
	}
	return t.Render()
}
