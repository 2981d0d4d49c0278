package workload

import (
	"cloudskulk/internal/cpu"
)

// This file is the lmbench 3.0-a9 catalogue: every micro-operation the
// paper's Tables II-IV measure, with native costs taken from the paper's
// own L0 column (an i7-4790) and exit profiles calibrated so the model
// reproduces the L1/L2 columns. See DESIGN.md §3 for the calibration.

// ArithmeticOps returns the Table II operations (times in nanoseconds at
// L0). Pure ALU/FPU work: no exits at any level, only the L2 cache drift —
// and sub-nanosecond ops don't even show that.
func ArithmeticOps() []cpu.Op {
	return []cpu.Op{
		cpu.ALUOp("integer bit", cpu.Nanos(0.26)),
		cpu.ALUOp("integer add", cpu.Nanos(0.13)),
		cpu.ALUOp("integer div", cpu.Nanos(5.94)),
		cpu.ALUOp("integer mod", cpu.Nanos(6.37)),
		cpu.ALUOp("float add", cpu.Nanos(0.75)),
		cpu.ALUOp("float mul", cpu.Nanos(1.25)),
		cpu.ALUOp("float div", cpu.Nanos(3.31)),
		cpu.ALUOp("double add", cpu.Nanos(0.75)),
		cpu.ALUOp("double mul", cpu.Nanos(1.25)),
		cpu.ALUOp("double div", cpu.Nanos(5.06)),
	}
}

// ProcessOps returns the Table III operations (times in microseconds at
// L0). Exit counts and nested-fault counts are the calibrated mechanism
// parameters:
//
//   - signal handling and protection faults stay in the guest kernel: no
//     exits, only the per-layer cache pad;
//   - pipe and AF_UNIX round trips raise IPIs/reschedules: a few exits,
//     multiplied at L2;
//   - fork is exit-free under EPT at L1 but page-table-heavy, so at L2 it
//     pays shadow-EPT nested faults;
//   - execve and /bin/sh add device/file I/O exits on top.
func ProcessOps() []cpu.Op {
	return []cpu.Op{
		cpu.SyscallOp("signal handler installation", cpu.Micros(0.075), 0, 0),
		cpu.SyscallOp("signal handler overhead", cpu.Micros(0.50), 0, 0),
		cpu.SyscallOp("protection fault", cpu.Micros(0.27), 0, 0),
		cpu.SyscallOp("pipe latency", cpu.Micros(3.49), 3, 0),
		cpu.SyscallOp("AF_UNIX sock stream latency", cpu.Micros(3.58), 2, 0),
		cpu.SyscallOp("fork+ exit", cpu.Micros(74.6), 0, 80),
		cpu.SyscallOp("fork+ execve", cpu.Micros(245.8), 12, 47),
		cpu.SyscallOp("fork+ /bin/sh -c", cpu.Micros(918.7), 44, 7),
	}
}

// FileOp is one Table IV row cell: creating or deleting files of a given
// size, measured in operations per second.
type FileOp struct {
	SizeKB int
	Create bool
	Op     cpu.Op
}

// FileOps returns the Table IV catalogue. File create/delete run entirely
// in the guest kernel's page cache (no device exits on the benchmark's
// scale), which is why the paper finds L1 and L2 "match the baseline".
// Native per-op costs derive from the paper's L0 ops/sec column.
func FileOps() []FileOp {
	perSec := func(ops float64) cpu.Cost {
		return cpu.Micros(1e6 / ops) // ops/second -> µs per op
	}
	return []FileOp{
		{SizeKB: 0, Create: true, Op: cpu.SyscallOp("file create 0K", perSec(126418), 0, 0)},
		{SizeKB: 0, Create: false, Op: cpu.SyscallOp("file delete 0K", perSec(379158), 0, 0)},
		{SizeKB: 1, Create: true, Op: cpu.SyscallOp("file create 1K", perSec(99112), 0, 0)},
		{SizeKB: 1, Create: false, Op: cpu.SyscallOp("file delete 1K", perSec(280884), 0, 0)},
		{SizeKB: 4, Create: true, Op: cpu.SyscallOp("file create 4K", perSec(99627), 0, 0)},
		{SizeKB: 4, Create: false, Op: cpu.SyscallOp("file delete 4K", perSec(279893), 0, 0)},
		{SizeKB: 10, Create: true, Op: cpu.SyscallOp("file create 10K", perSec(79869), 0, 0)},
		{SizeKB: 10, Create: false, Op: cpu.SyscallOp("file delete 10K", perSec(214767), 0, 0)},
	}
}

// OpsPerSec converts a mean per-op latency to Table IV's unit,
// operations per second; a zero cost reports zero.
func OpsPerSec(c cpu.Cost) float64 {
	if c <= 0 {
		return 0
	}
	return 1e12 / float64(c) // ps -> ops/s
}

// LmbenchResult is one measured cell: the operation and its mean latency.
type LmbenchResult struct {
	Op   cpu.Op
	Mean cpu.Cost
}

// RunLmbench measures each op's mean latency over reps executions in the
// given context, the way lmbench loops and averages.
func RunLmbench(ctx *Context, ops []cpu.Op, reps int) []LmbenchResult {
	out := make([]LmbenchResult, 0, len(ops))
	for _, op := range ops {
		out = append(out, LmbenchResult{
			Op:   op,
			Mean: ctx.VCPU.MeasureMean(op, reps),
		})
	}
	return out
}
