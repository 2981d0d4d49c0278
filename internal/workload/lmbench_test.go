package workload

import (
	"math"
	"testing"

	"cloudskulk/internal/cpu"
)

// paper values for Tables II and III, used as calibration targets.
type paperRow struct {
	name       string
	l0, l1, l2 float64
}

func within(got, want, tolFrac float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/want <= tolFrac
}

func measure(t *testing.T, ops []cpu.Op, level cpu.Level) map[string]cpu.Cost {
	t.Helper()
	ctx := hostCtx(t, 1, level)
	out := make(map[string]cpu.Cost, len(ops))
	for _, r := range RunLmbench(ctx, ops, 10000) {
		out[r.Op.Name] = r.Mean
	}
	return out
}

// TestTable2Calibration checks every arithmetic cell against the paper
// within 4% (Table II values are exact model inputs at L0, drifted at L2).
func TestTable2Calibration(t *testing.T) {
	rows := []paperRow{
		{"integer bit", 0.26, 0.25, 0.26},
		{"integer add", 0.13, 0.13, 0.13},
		{"integer div", 5.94, 5.96, 6.14},
		{"integer mod", 6.37, 6.39, 6.59},
		{"float add", 0.75, 0.75, 0.78},
		{"float mul", 1.25, 1.26, 1.30},
		{"float div", 3.31, 3.32, 3.43},
		{"double add", 0.75, 0.75, 0.78},
		{"double mul", 1.25, 1.26, 1.30},
		{"double div", 5.06, 5.07, 5.23},
	}
	got := map[cpu.Level]map[string]cpu.Cost{
		cpu.L0: measure(t, ArithmeticOps(), cpu.L0),
		cpu.L1: measure(t, ArithmeticOps(), cpu.L1),
		cpu.L2: measure(t, ArithmeticOps(), cpu.L2),
	}
	for _, row := range rows {
		checks := []struct {
			level cpu.Level
			want  float64
		}{{cpu.L0, row.l0}, {cpu.L1, row.l1}, {cpu.L2, row.l2}}
		for _, c := range checks {
			cell, ok := got[c.level][row.name]
			if !ok {
				t.Fatalf("op %q missing", row.name)
			}
			// 5% tolerance: the paper's own cells carry rounding and
			// run-to-run noise (integer bit is *faster* at L1 there).
			if !within(cell.Nanoseconds(), c.want, 0.05) {
				t.Errorf("%s %v = %.3fns, paper %.2fns",
					row.name, c.level, cell.Nanoseconds(), c.want)
			}
		}
	}
}

// TestTable3Calibration checks the process-op cells against the paper.
// Tolerances are looser (10%) because some cells carry the paper's own
// measurement noise (e.g. fork+exit got *faster* L0->L1).
func TestTable3Calibration(t *testing.T) {
	rows := []paperRow{
		{"signal handler installation", 0.075, 0.096, 0.10},
		{"signal handler overhead", 0.50, 0.58, 0.60},
		{"protection fault", 0.27, 0.29, 0.32},
		{"pipe latency", 3.49, 6.75, 65.49},
		{"AF_UNIX sock stream latency", 3.58, 5.37, 43.98},
		{"fork+ exit", 74.6, 73.65, 242.19},
		{"fork+ execve", 245.8, 275.05, 588.50},
		{"fork+ /bin/sh -c", 918.7, 966.67, 1826.00},
	}
	got := map[cpu.Level]map[string]cpu.Cost{
		cpu.L0: measure(t, ProcessOps(), cpu.L0),
		cpu.L1: measure(t, ProcessOps(), cpu.L1),
		cpu.L2: measure(t, ProcessOps(), cpu.L2),
	}
	tolAt := func(level cpu.Level, want float64) float64 {
		// Sub-microsecond cells and the L1 column carry the most
		// paper-side noise.
		if want < 1 || level == cpu.L1 {
			return 0.30
		}
		return 0.10
	}
	for _, row := range rows {
		checks := []struct {
			level cpu.Level
			want  float64
		}{{cpu.L0, row.l0}, {cpu.L1, row.l1}, {cpu.L2, row.l2}}
		for _, c := range checks {
			cell, ok := got[c.level][row.name]
			if !ok {
				t.Fatalf("op %q missing", row.name)
			}
			if !within(cell.Microseconds(), c.want, tolAt(c.level, c.want)) {
				t.Errorf("%s %v = %.2fµs, paper %.2fµs",
					row.name, c.level, cell.Microseconds(), c.want)
			}
		}
	}
}

// TestTable3Shape asserts the qualitative claims the paper draws from
// Table III, independent of exact calibration.
func TestTable3Shape(t *testing.T) {
	l0 := measure(t, ProcessOps(), cpu.L0)
	l1 := measure(t, ProcessOps(), cpu.L1)
	l2 := measure(t, ProcessOps(), cpu.L2)

	// fork barely changes L0->L1 but blows up at L2.
	forkRatio01 := float64(l1["fork+ exit"]) / float64(l0["fork+ exit"])
	forkRatio12 := float64(l2["fork+ exit"]) / float64(l1["fork+ exit"])
	if forkRatio01 > 1.1 {
		t.Fatalf("fork L1/L0 = %.2f, want ~1", forkRatio01)
	}
	if forkRatio12 < 2.5 {
		t.Fatalf("fork L2/L1 = %.2f, want ~3.3", forkRatio12)
	}
	// pipe latency is an order of magnitude worse at L2.
	pipeRatio := float64(l2["pipe latency"]) / float64(l0["pipe latency"])
	if pipeRatio < 10 {
		t.Fatalf("pipe L2/L0 = %.2f, want ~19", pipeRatio)
	}
}

// TestTable4FileOpsMatchBaseline asserts the paper's Table IV conclusion:
// "for file creation and deletion operations, both L2 performance and L1
// performance match the baseline".
func TestTable4FileOpsMatchBaseline(t *testing.T) {
	var ops []cpu.Op
	for _, f := range FileOps() {
		ops = append(ops, f.Op)
	}
	at := func(level cpu.Level) []LmbenchResult {
		return RunLmbench(hostCtx(t, 1, level), ops, 5000)
	}
	l0, l1, l2 := at(cpu.L0), at(cpu.L1), at(cpu.L2)
	if len(l0) != 8 {
		t.Fatalf("file ops = %d", len(l0))
	}
	for i := range l0 {
		base := OpsPerSec(l0[i].Mean)
		if base <= 0 {
			t.Fatalf("zero rate for %v", l0[i].Op.Name)
		}
		d1 := math.Abs(OpsPerSec(l1[i].Mean)-base) / base
		d2 := math.Abs(OpsPerSec(l2[i].Mean)-base) / base
		if d1 > 0.05 || d2 > 0.05 {
			t.Fatalf("%s deviates L1 %.1f%% L2 %.1f%% from baseline",
				l0[i].Op.Name, d1*100, d2*100)
		}
	}
}

func TestFileOpsCatalogueSizes(t *testing.T) {
	sizes := map[int]int{}
	creates := 0
	for _, f := range FileOps() {
		sizes[f.SizeKB]++
		if f.Create {
			creates++
		}
	}
	if len(sizes) != 4 || creates != 4 {
		t.Fatalf("catalogue = %v sizes, %d creates", len(sizes), creates)
	}
	for _, k := range []int{0, 1, 4, 10} {
		if sizes[k] != 2 {
			t.Fatalf("size %dK has %d entries", k, sizes[k])
		}
	}
}

func TestRunLmbenchEmptyOps(t *testing.T) {
	ctx := hostCtx(t, 1, cpu.L0)
	if got := RunLmbench(ctx, nil, 100); len(got) != 0 {
		t.Fatalf("got %d results for no ops", len(got))
	}
}
