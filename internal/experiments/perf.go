package experiments

import (
	"fmt"
	"slices"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/hv"
	"cloudskulk/internal/report"
	"cloudskulk/internal/runner"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/stats"
	"cloudskulk/internal/workload"
)

// levelContext builds a measurement context at a virtualization level with
// the backend's calibrated model and light measurement noise. The vCPU
// counts into o.Telemetry when one is set (SetTelemetry(nil) is the
// detached fast path).
func levelContext(o Options, prof hv.Profile, seed int64, level cpu.Level, memMB int64) *workload.Context {
	eng := sim.NewEngine(seed)
	ctx := workload.HostContext(eng, prof.CPU, memMB<<20)
	if level != cpu.L0 {
		ctx.VCPU = cpu.NewVCPU(eng, prof.CPU, level)
	}
	ctx.VCPU.Noise = prof.VCPUNoise
	ctx.VCPU.SetTelemetry(o.Telemetry)
	return ctx
}

// levelRunCells enumerates the (level, run) grid in report order; sweeps
// shard it across the worker pool and reassemble by index.
type levelRunCell struct {
	level cpu.Level
	run   int
}

func levelRunCells(runs int) []levelRunCell {
	cells := make([]levelRunCell, 0, len(cpu.Levels)*runs)
	for _, level := range cpu.Levels {
		for run := 0; run < runs; run++ {
			cells = append(cells, levelRunCell{level, run})
		}
	}
	return cells
}

// Figure2Result holds the kernel-compile timings per level.
type Figure2Result struct {
	// Seconds per level, one entry per run.
	Seconds map[cpu.Level][]float64
}

// Figure2KernelCompile reproduces Fig. 2: Linux-kernel compile time at
// L0/L1/L2, with ccache enabled only on L0 (the paper's footnote 1).
func Figure2KernelCompile(o Options) (Figure2Result, error) {
	o = o.withDefaults()
	b, err := o.resolveBackend()
	if err != nil {
		return Figure2Result{}, err
	}
	cells := levelRunCells(o.Runs)
	secs, err := runner.Map(len(cells), o.runnerOptions(), func(i int) (float64, error) {
		cl := cells[i]
		ctx := levelContext(o, b.Profile, perRunSeed(o, cellLabel("fig2", cl.level.String()), cl.run), cl.level, o.GuestMemMB)
		k := workload.DefaultKernelCompile(cl.level == cpu.L0)
		k.Units = o.CompileUnits
		d, err := k.Run(ctx)
		if err != nil {
			return 0, fmt.Errorf("fig2 %v run %d: %w", cl.level, cl.run, err)
		}
		// Run-to-run system variance (cron, thermal, page-cache
		// state) that per-operation noise averages away over
		// thousands of compilation units.
		return ctx.Eng.Gauss(d.Seconds(), 0.015), nil
	})
	if err != nil {
		return Figure2Result{}, err
	}
	res := Figure2Result{Seconds: make(map[cpu.Level][]float64, 3)}
	for i, cl := range cells {
		res.Seconds[cl.level] = append(res.Seconds[cl.level], secs[i])
	}
	return res, nil
}

// Mean returns a level's mean compile time in seconds.
func (r Figure2Result) Mean(l cpu.Level) float64 { return stats.Mean(r.Seconds[l]) }

// Render draws the figure as a log-scale bar chart with the paper-style
// percentage labels.
func (r Figure2Result) Render() string {
	c := report.BarChart{
		Title: "Fig 2: Linux kernel compile timing",
		Unit:  "s",
		Log:   true,
	}
	prev := 0.0
	for _, l := range cpu.Levels {
		s, _ := stats.Summarize(r.Seconds[l])
		note := fmt.Sprintf("rsd %.1f%%", s.RelStddev*100)
		if prev > 0 {
			note = report.Pct(stats.PercentChange(prev, s.Mean)) + " vs layer below, " + note
		}
		c.Add(l.String(), s.Mean, note)
		prev = s.Mean
	}
	return c.Render()
}

// Figure3Result holds netperf throughput per level.
type Figure3Result struct {
	// Mbps per level, one entry per run.
	Mbps map[cpu.Level][]float64
}

// Figure3Netperf reproduces Fig. 3: netperf TCP stream throughput at
// L0/L1/L2, 5 consecutive runs averaged.
func Figure3Netperf(o Options) (Figure3Result, error) {
	o = o.withDefaults()
	b, err := o.resolveBackend()
	if err != nil {
		return Figure3Result{}, err
	}
	link := int64(2) << 30 // intra-host virtio path
	cells := levelRunCells(o.Runs)
	mbps, err := runner.Map(len(cells), o.runnerOptions(), func(i int) (float64, error) {
		cl := cells[i]
		ctx := levelContext(o, b.Profile, perRunSeed(o, cellLabel("fig3", cl.level.String()), cl.run), cl.level, 64)
		return workload.DefaultNetperf().Run(ctx, link), nil
	})
	if err != nil {
		return Figure3Result{}, err
	}
	res := Figure3Result{Mbps: make(map[cpu.Level][]float64, 3)}
	for i, cl := range cells {
		res.Mbps[cl.level] = append(res.Mbps[cl.level], mbps[i])
	}
	return res, nil
}

// Mean returns a level's mean throughput in Mbit/s.
func (r Figure3Result) Mean(l cpu.Level) float64 { return stats.Mean(r.Mbps[l]) }

// RelStddev returns a level's relative standard deviation.
func (r Figure3Result) RelStddev(l cpu.Level) float64 { return stats.RelStddev(r.Mbps[l]) }

// Render draws the figure.
func (r Figure3Result) Render() string {
	c := report.BarChart{
		Title: "Fig 3: Netperf TCP stream throughput",
		Unit:  "Mbit/s",
		Log:   true,
	}
	prev := 0.0
	for _, l := range cpu.Levels {
		s, _ := stats.Summarize(r.Mbps[l])
		note := fmt.Sprintf("rsd %.2f%%", s.RelStddev*100)
		if prev > 0 {
			note = report.Pct(stats.PercentChange(prev, s.Mean)) + " vs layer below, " + note
		}
		c.Add(l.String(), s.Mean, note)
		prev = s.Mean
	}
	return c.Render()
}

// LmbenchTable is one of the paper's lmbench tables (II-IV): one value per
// operation at each virtualization level, in the table's unit.
type LmbenchTable struct {
	Title  string
	Ops    []string
	Values map[cpu.Level][]float64
	// format renders one cell in the table's unit.
	format func(float64) string
}

// Value returns op's value at level l, or 0 when the table has no op of
// that name.
func (t LmbenchTable) Value(l cpu.Level, op string) float64 {
	if i := slices.Index(t.Ops, op); i >= 0 {
		return t.Values[l][i]
	}
	return 0
}

// Render draws the table in the paper's layout, one row per level.
func (t LmbenchTable) Render() string {
	tab := report.Table{
		Title:   t.Title,
		Headers: append([]string{"Config"}, t.Ops...),
	}
	for _, l := range cpu.Levels {
		row := []string{l.String()}
		for _, v := range t.Values[l] {
			row = append(row, t.format(v))
		}
		tab.AddRow(row...)
	}
	return tab.Render()
}

// lmbenchSweep is the lmbench protocol all three tables share: one cell
// per level, seeded from label, timing every op's mean cost over reps
// executions and converting it to the table's unit with value.
func lmbenchSweep(o Options, label, title string, ops []cpu.Op, reps int,
	value func(cpu.Cost) float64, format func(float64) string) (LmbenchTable, error) {
	b, err := o.resolveBackend()
	if err != nil {
		return LmbenchTable{}, err
	}
	cols, err := runner.Map(len(cpu.Levels), o.runnerOptions(), func(i int) ([]float64, error) {
		level := cpu.Levels[i]
		ctx := levelContext(o, b.Profile, perRunSeed(o, label, int(level)), level, 64)
		vals := make([]float64, 0, len(ops))
		for _, r := range workload.RunLmbench(ctx, ops, reps) {
			vals = append(vals, value(r.Mean))
		}
		return vals, nil
	})
	if err != nil {
		return LmbenchTable{}, err
	}
	t := LmbenchTable{Title: title, Values: make(map[cpu.Level][]float64, len(cpu.Levels)), format: format}
	for _, op := range ops {
		t.Ops = append(t.Ops, op.Name)
	}
	for i, level := range cpu.Levels {
		t.Values[level] = cols[i]
	}
	return t, nil
}

// Table2Arithmetic reproduces Table II: arithmetic latency in ns.
func Table2Arithmetic(o Options) (LmbenchTable, error) {
	o = o.withDefaults()
	return lmbenchSweep(o, "table2", "TABLE II: lmbench arithmetic operations - times in nanoseconds",
		workload.ArithmeticOps(), o.LmbenchReps, cpu.Cost.Nanoseconds, report.F2)
}

// Table3Processes reproduces Table III: process-op latency in µs.
func Table3Processes(o Options) (LmbenchTable, error) {
	o = o.withDefaults()
	return lmbenchSweep(o, "table3", "TABLE III: lmbench processes - times in microseconds",
		workload.ProcessOps(), o.LmbenchReps/10+1, cpu.Cost.Microseconds, report.F2)
}

// Table4FileOps reproduces Table IV: file creations/deletions per second.
func Table4FileOps(o Options) (LmbenchTable, error) {
	o = o.withDefaults()
	var ops []cpu.Op
	for _, f := range workload.FileOps() {
		ops = append(ops, f.Op)
	}
	return lmbenchSweep(o, "table4", "TABLE IV: lmbench file system latency - file creations/deletions per second",
		ops, o.LmbenchReps/10+1, workload.OpsPerSec, func(v float64) string { return report.Comma(int64(v)) })
}
