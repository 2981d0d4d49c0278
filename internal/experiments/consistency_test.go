package experiments

import (
	"math"
	"testing"

	"cloudskulk/internal/core"
	"cloudskulk/internal/cpu"
	"cloudskulk/internal/workload"
)

// TestTablesMatchRealNesting validates the experiment harness's shortcut:
// Tables II-IV measure in synthetic per-level contexts, so this test
// re-measures inside the *actual* nested victim of a real CloudSkulk
// install and checks the numbers agree. If the synthetic contexts ever
// drift from what the attack really produces, this fails.
func TestTablesMatchRealNesting(t *testing.T) {
	o := TestOptions()
	c, err := NewCloud(o.Seed, WithGuestMemMB(o.GuestMemMB))
	if err != nil {
		t.Fatal(err)
	}
	rk, err := c.InstallRootkit(core.InstallConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rk.Victim.Level() != cpu.L2 {
		t.Fatalf("victim level = %v", rk.Victim.Level())
	}

	// Noise off on both sides for exact comparison.
	real := workload.VMContext(rk.Victim)
	real.VCPU.Noise = 0
	backend, err := o.resolveBackend()
	if err != nil {
		t.Fatal(err)
	}
	synthetic := levelContext(o, backend.Profile, o.Seed, cpu.L2, o.GuestMemMB)
	synthetic.VCPU.Noise = 0

	ops := append(workload.ArithmeticOps(), workload.ProcessOps()...)
	for _, op := range ops {
		a := real.VCPU.MeasureMean(op, 200)
		b := synthetic.VCPU.MeasureMean(op, 200)
		if a == 0 && b == 0 {
			continue
		}
		diff := math.Abs(float64(a)-float64(b)) / math.Max(float64(a), float64(b))
		if diff > 0.001 {
			t.Errorf("%s: real nested %v vs synthetic %v", op.Name, a, b)
		}
	}

	// And the Fig. 2 compile shape holds inside the real victim too.
	k := workload.DefaultKernelCompile(false)
	k.Units = 60
	dReal, err := k.Run(real)
	if err != nil {
		t.Fatal(err)
	}
	dSynth, err := k.Run(synthetic)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(dReal) / float64(dSynth)
	if ratio < 0.999 || ratio > 1.001 {
		t.Fatalf("compile inside real victim %v vs synthetic %v", dReal, dSynth)
	}
}
