package kvm

import (
	"fmt"
	"strings"
	"testing"

	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/telemetry"
	"cloudskulk/internal/vnet"
)

// hostState is everything CreateVM touches on a host, reduced to values a
// failed call must leave unchanged.
type hostState struct {
	procs, history, ksmRegions, fwdVMs int
	endpoint, indexed, listening       bool
	forwards                           string
	incoming, registered               int
}

func captureState(h *Host, svc *stubMigration, name string, ports ...int) hostState {
	hv := h.Hypervisor()
	s := hostState{
		procs:      h.OS().NumProcesses(),
		history:    len(h.OS().History()),
		ksmRegions: h.KSM().NumRegions(),
		fwdVMs:     len(hv.fwds),
		endpoint:   h.Network().HasEndpoint(name + ".nic"),
		listening:  h.Network().Listening(vnet.Addr{Endpoint: "host", Port: 4444}),
	}
	_, s.indexed = hv.FindByEndpoint(name + ".nic")
	var b strings.Builder
	for _, p := range ports {
		dst, _, err := h.Network().ResolveForward(vnet.Addr{Endpoint: "host", Port: p})
		fmt.Fprintf(&b, "%d->%v/%v ", p, dst, err)
	}
	s.forwards = b.String()
	if svc != nil {
		s.incoming, s.registered = len(svc.incoming), len(svc.hosts)
	}
	return s
}

func TestCreateVMFailureLeavesNoState(t *testing.T) {
	fwd := func(ports ...int) qemu.Config {
		cfg := smallCfg("b")
		for _, p := range ports {
			cfg.NetDevs[0].HostFwds = append(cfg.NetDevs[0].HostFwds, qemu.FwdRule{HostPort: p, GuestPort: p / 100})
		}
		return cfg
	}
	incoming := func(uri string) qemu.Config {
		cfg := smallCfg("b")
		cfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 3333, GuestPort: 33}}
		cfg.Incoming = uri
		return cfg
	}
	for _, tc := range []struct {
		name       string
		migration  bool
		setup      func(h *Host) error
		bad, retry qemu.Config
	}{
		// The second forward collides with a's: the first must be undone.
		{name: "forward conflict", bad: fwd(3333, 2222), retry: fwd(3333)},
		{name: "malformed incoming", migration: true,
			bad: incoming("tcp:0.0.0.0:nope"), retry: incoming("tcp:0.0.0.0:4444")},
		{name: "incoming already registered", migration: true,
			setup: func(h *Host) error {
				cfg := smallCfg("c")
				cfg.Incoming = "tcp:0.0.0.0:4444"
				_, err := h.Hypervisor().CreateVM(cfg)
				return err
			},
			bad: incoming("tcp:0.0.0.0:4444"), retry: incoming("tcp:0.0.0.0:4445")},
		{name: "incoming port bound", migration: true,
			setup: func(h *Host) error {
				return h.Network().Listen(vnet.Addr{Endpoint: "host", Port: 4444}, func(*vnet.Packet) {})
			},
			bad: incoming("tcp:0.0.0.0:4444"), retry: incoming("tcp:0.0.0.0:4445")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHost(t)
			var svc *stubMigration
			if tc.migration {
				svc = newStubMigration()
				h.SetMigrationService(svc)
			}
			hv := h.Hypervisor()
			a := smallCfg("a")
			a.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 2222, GuestPort: 22}}
			if _, err := hv.CreateVM(a); err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				if err := tc.setup(h); err != nil {
					t.Fatal(err)
				}
			}
			before := captureState(h, svc, "b", 2222, 3333)
			if _, err := hv.CreateVM(tc.bad); err == nil {
				t.Fatal("CreateVM succeeded, want an error")
			}
			if after := captureState(h, svc, "b", 2222, 3333); after != before {
				t.Fatalf("failed CreateVM changed the host:\n before %+v\n after  %+v", before, after)
			}
			vm, err := hv.CreateVM(tc.retry)
			if err != nil {
				t.Fatalf("corrected retry: %v", err)
			}
			if got, ok := hv.FindByEndpoint("b.nic"); !ok || got != vm {
				t.Fatalf("retry not indexed: %v, %v", got, ok)
			}
			if dst, _, _ := h.Network().ResolveForward(vnet.Addr{Endpoint: "host", Port: 3333}); dst != (vnet.Addr{Endpoint: "b.nic", Port: 33}) {
				t.Fatalf("retry forward = %v", dst)
			}
		})
	}
}

func TestFindByEndpointIndex(t *testing.T) {
	h := newHost(t)
	hv := h.Hypervisor()
	outer, err := hv.CreateVM(smallCfg("outer"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hv.Launch("outer"); err != nil {
		t.Fatal(err)
	}
	inner, err := hv.EnableNesting("outer")
	if err != nil {
		t.Fatal(err)
	}
	// The nested guest reuses the outer guest's name, as the attack does.
	n1, err := inner.CreateVM(smallCfg("outer"))
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Launch("outer"); err != nil {
		t.Fatal(err)
	}
	deeper, err := inner.EnableNesting("outer")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := deeper.CreateVM(smallCfg("n2"))
	if err != nil {
		t.Fatal(err)
	}
	other, err := hv.CreateVM(smallCfg("other"))
	if err != nil {
		t.Fatal(err)
	}
	find := func(ep string) *qemu.VM {
		vm, ok := hv.FindByEndpoint(ep)
		if ok != (vm != nil) {
			t.Fatalf("FindByEndpoint(%q) = %v, %v", ep, vm, ok)
		}
		return vm
	}
	for ep, want := range map[string]*qemu.VM{
		"outer.nic": outer, "outer/outer.nic": n1, "outer/n2.nic": n2,
		"other.nic": other, "host": nil, "n2.nic": nil,
	} {
		if got := find(ep); got != want {
			t.Fatalf("FindByEndpoint(%q) = %v, want %v", ep, got, want)
		}
	}
	if got, ok := inner.FindByEndpoint("outer.nic"); ok {
		t.Fatalf("nested hypervisor found its host's guest: %v", got)
	}

	if err := hv.Kill("other"); err != nil {
		t.Fatal(err)
	}
	if got := find("other.nic"); got != nil {
		t.Fatalf("killed VM still found: %v", got)
	}
	// Killing the outer VM takes both nested levels with it.
	if err := hv.Kill("outer"); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"outer.nic", "outer/outer.nic", "outer/n2.nic"} {
		if got := find(ep); got != nil {
			t.Fatalf("FindByEndpoint(%q) after outer kill = %v", ep, got)
		}
	}
	// A reused name indexes the new VM.
	again, err := hv.CreateVM(smallCfg("other"))
	if err != nil {
		t.Fatal(err)
	}
	if got := find("other.nic"); got != again || got == other {
		t.Fatalf("reused name found %v, want the new VM %v", got, again)
	}
}

// templateHost is a host with a metrics registry and a frozen 4 MB guest
// image, the shape fleet provisioning creates VMs in.
func templateHost(tb testing.TB) (*Host, *mem.Template) {
	tb.Helper()
	h := newHost(tb)
	h.SetTelemetry(telemetry.NewRegistry())
	return h, mem.Freeze("golden.img", mem.NewSpace("golden", 4<<20))
}

func templateCfgs(tmpl *mem.Template, n int) []qemu.Config {
	cfgs := make([]qemu.Config, n)
	for i := range cfgs {
		cfgs[i] = smallCfg(fmt.Sprintf("g%d", i))
		cfgs[i].MemTemplate = tmpl
		cfgs[i].NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 10000 + i, GuestPort: 22}}
	}
	return cfgs
}

// TestCreateVMAllocs bounds the allocations of one template-backed
// CreateVM with a registry attached.
func TestCreateVMAllocs(t *testing.T) {
	h, tmpl := templateHost(t)
	const runs = 200
	cfgs := templateCfgs(tmpl, runs+1)
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := h.Hypervisor().CreateVM(cfgs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 30 {
		t.Fatalf("CreateVM = %.1f allocs/op, want <= 30", allocs)
	}
}

// BenchmarkCreateVM provisions template-backed guests 100 to a host, the
// density of a megastorm host.
func BenchmarkCreateVM(b *testing.B) {
	const perHost = 100
	h, tmpl := templateHost(b)
	cfgs := templateCfgs(tmpl, perHost)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%perHost == 0 {
			b.StopTimer()
			h, _ = templateHost(b)
			b.StartTimer()
		}
		if _, err := h.Hypervisor().CreateVM(cfgs[i%perHost]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindByEndpoint(b *testing.B) {
	h, tmpl := templateHost(b)
	const vms = 100
	for _, cfg := range templateCfgs(tmpl, vms) {
		if _, err := h.Hypervisor().CreateVM(cfg); err != nil {
			b.Fatal(err)
		}
	}
	eps := make([]string, vms)
	for i := range eps {
		eps[i] = fmt.Sprintf("g%d.nic", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := h.Hypervisor().FindByEndpoint(eps[i%vms]); !ok {
			b.Fatal("endpoint not found")
		}
	}
}
