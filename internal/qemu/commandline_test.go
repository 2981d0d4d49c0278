package qemu

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"unicode"

	"cloudskulk/internal/mem"
)

// commandLineOracle is the fmt-based renderer CommandLine replaced. It
// stays here as the reference the golden and fuzz tests compare against.
func commandLineOracle(c Config) string {
	var b strings.Builder
	b.WriteString("qemu-system-x86_64")
	if c.EnableKVM {
		b.WriteString(" -enable-kvm")
	}
	fmt.Fprintf(&b, " -name %s", c.Name)
	fmt.Fprintf(&b, " -machine %s", c.Machine)
	fmt.Fprintf(&b, " -m %d", c.MemoryMB)
	fmt.Fprintf(&b, " -smp %d", c.CPUs)
	for _, d := range c.Drives {
		fmt.Fprintf(&b, " -drive file=%s,format=%s,size=%d", d.File, d.Format, d.SizeMB)
	}
	for i, nd := range c.NetDevs {
		fmt.Fprintf(&b, " -device %s,netdev=net%d", nd.Model, i)
		fmt.Fprintf(&b, " -netdev user,id=net%d", i)
		fwds := append([]FwdRule(nil), nd.HostFwds...)
		sort.Slice(fwds, func(a, z int) bool { return fwds[a].HostPort < fwds[z].HostPort })
		for _, f := range fwds {
			fmt.Fprintf(&b, ",hostfwd=tcp::%d-:%d", f.HostPort, f.GuestPort)
		}
	}
	if c.MonitorPort != 0 {
		fmt.Fprintf(&b, " -monitor telnet:127.0.0.1:%d,server,nowait", c.MonitorPort)
	}
	if c.Incoming != "" {
		fmt.Fprintf(&b, " -incoming %s", c.Incoming)
	}
	return b.String()
}

// TestCommandLineGolden pins the exact bytes of the recon surface: the
// expected strings were rendered by the fmt-based renderer above.
func TestCommandLineGolden(t *testing.T) {
	noKVM := DefaultConfig("plain")
	noKVM.EnableKVM = false

	multi := DefaultConfig("multi")
	multi.CPUs = 4
	multi.MemoryMB = 8192
	multi.Drives = append(multi.Drives, Drive{File: "/var/lib/data.img", Format: "raw", SizeMB: 512})
	multi.NetDevs[0].HostFwds = []FwdRule{{2222, 22}}
	multi.NetDevs = append(multi.NetDevs, NetDev{Model: "e1000", HostFwds: []FwdRule{{8080, 80}, {8443, 443}}})

	unsorted := DefaultConfig("unsorted")
	unsorted.NetDevs[0].HostFwds = []FwdRule{{8080, 80}, {2222, 22}, {5000, 5001}, {3333, 33}}

	monitor := DefaultConfig("victim")
	monitor.NetDevs[0].HostFwds = []FwdRule{{2222, 22}}
	monitor.MonitorPort = 5555

	incoming := DefaultConfig("victim")
	incoming.MonitorPort = 6666
	incoming.Incoming = "tcp:0.0.0.0:4444"

	templated := DefaultConfig("forked")
	templated.MemoryMB = 1
	templated.MemTemplate = mem.Freeze("golden.img", mem.NewSpace("golden", 1<<20))

	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", DefaultConfig("guest0"),
			"qemu-system-x86_64 -enable-kvm -name guest0 -machine pc-i440fx-2.9 -m 1024 -smp 1 -drive file=guest0.qcow2,format=qcow2,size=20480 -device virtio-net-pci,netdev=net0 -netdev user,id=net0"},
		{"no-kvm", noKVM,
			"qemu-system-x86_64 -name plain -machine pc-i440fx-2.9 -m 1024 -smp 1 -drive file=plain.qcow2,format=qcow2,size=20480 -device virtio-net-pci,netdev=net0 -netdev user,id=net0"},
		{"two-drives-two-nics", multi,
			"qemu-system-x86_64 -enable-kvm -name multi -machine pc-i440fx-2.9 -m 8192 -smp 4 -drive file=multi.qcow2,format=qcow2,size=20480 -drive file=/var/lib/data.img,format=raw,size=512 -device virtio-net-pci,netdev=net0 -netdev user,id=net0,hostfwd=tcp::2222-:22 -device e1000,netdev=net1 -netdev user,id=net1,hostfwd=tcp::8080-:80,hostfwd=tcp::8443-:443"},
		{"unsorted-hostfwds", unsorted,
			"qemu-system-x86_64 -enable-kvm -name unsorted -machine pc-i440fx-2.9 -m 1024 -smp 1 -drive file=unsorted.qcow2,format=qcow2,size=20480 -device virtio-net-pci,netdev=net0 -netdev user,id=net0,hostfwd=tcp::2222-:22,hostfwd=tcp::3333-:33,hostfwd=tcp::5000-:5001,hostfwd=tcp::8080-:80"},
		{"monitor-port", monitor,
			"qemu-system-x86_64 -enable-kvm -name victim -machine pc-i440fx-2.9 -m 1024 -smp 1 -drive file=victim.qcow2,format=qcow2,size=20480 -device virtio-net-pci,netdev=net0 -netdev user,id=net0,hostfwd=tcp::2222-:22 -monitor telnet:127.0.0.1:5555,server,nowait"},
		{"incoming", incoming,
			"qemu-system-x86_64 -enable-kvm -name victim -machine pc-i440fx-2.9 -m 1024 -smp 1 -drive file=victim.qcow2,format=qcow2,size=20480 -device virtio-net-pci,netdev=net0 -netdev user,id=net0 -monitor telnet:127.0.0.1:6666,server,nowait -incoming tcp:0.0.0.0:4444"},
		// The template is invisible on the recon surface.
		{"mem-template", templated,
			"qemu-system-x86_64 -enable-kvm -name forked -machine pc-i440fx-2.9 -m 1 -smp 1 -drive file=forked.qcow2,format=qcow2,size=20480 -device virtio-net-pci,netdev=net0 -netdev user,id=net0"},
	} {
		if got := tc.cfg.CommandLine(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		if got := commandLineOracle(tc.cfg); got != tc.want {
			t.Errorf("%s: oracle drifted:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
	if unsorted.NetDevs[0].HostFwds[0] != (FwdRule{8080, 80}) {
		t.Errorf("CommandLine reordered the caller's HostFwds: %v", unsorted.NetDevs[0].HostFwds)
	}
}

// FuzzCommandLine compares CommandLine with the fmt-based oracle on
// arbitrary configs and, when no field holds whitespace, checks that
// parsing the render and rendering again is the identity.
func FuzzCommandLine(f *testing.F) {
	f.Add("guest0", "pc-i440fx-2.9", int64(1024), 1, true, "guest0.qcow2", "qcow2", int64(20480),
		"virtio-net-pci", 2222, 22, 8080, 80, 0, "")
	f.Add("victim", "pc-q35-2.9", int64(-1), 0, false, "/a b", "raw", int64(0),
		"e1000", 8080, 80, 2222, 22, 5555, "tcp:0.0.0.0:4444")
	f.Add("", "", int64(0), -3, true, "", "", int64(-7), "", 0, 0, 0, 0, -1, "\x00\xff")
	f.Fuzz(func(t *testing.T, name, machine string, memMB int64, cpus int, kvm bool,
		file, format string, sizeMB int64, model string, hp1, gp1, hp2, gp2, monitor int, incoming string) {
		c := Config{
			Name: name, Machine: machine, MemoryMB: memMB, CPUs: cpus, EnableKVM: kvm,
			Drives:      []Drive{{File: file, Format: format, SizeMB: sizeMB}, {File: file + "2", Format: format, SizeMB: sizeMB + 1}},
			NetDevs:     []NetDev{{Model: model, HostFwds: []FwdRule{{hp1, gp1}, {hp2, gp2}}}, {Model: model}},
			MonitorPort: monitor, Incoming: incoming,
		}
		line := c.CommandLine()
		if want := commandLineOracle(c); line != want {
			t.Fatalf("CommandLine differs from the oracle:\n got %q\nwant %q", line, want)
		}
		// The dialect separates flags by whitespace and sub-options by
		// ',' and '='; an empty value would swallow the next flag, and the
		// parser defaults a zero -m or -smp.
		if strings.ContainsFunc(incoming, unicode.IsSpace) || memMB == 0 || cpus == 0 {
			return
		}
		for _, s := range []string{name, machine, file, format, model} {
			if s == "" || strings.ContainsFunc(s, unicode.IsSpace) || strings.ContainsAny(s, ",=") {
				return
			}
		}
		parsed, err := ParseCommandLine(line)
		if err != nil {
			t.Fatalf("ParseCommandLine(%q): %v", line, err)
		}
		if again := parsed.CommandLine(); again != line {
			t.Fatalf("round trip changed the line:\n got %q\nwant %q", again, line)
		}
	})
}
