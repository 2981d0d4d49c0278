package qemu_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/fleet"
	"cloudskulk/internal/qemu"
)

// migrateView is what `info migrate` reports: status string and
// transferred RAM.
type migrateView struct {
	Status        string
	TransferredMB string
}

// hmpMigrateView probes `info migrate` over the human monitor protocol.
// ok is false while no migration has started yet.
func hmpMigrateView(t *testing.T, vm *qemu.VM) (migrateView, bool) {
	t.Helper()
	out, err := vm.Monitor().Execute("info migrate")
	if err != nil {
		t.Fatalf("info migrate: %v", err)
	}
	var v migrateView
	for _, line := range strings.Split(out, "\n") {
		if s, ok := strings.CutPrefix(line, "Migration status: "); ok {
			v.Status = s
		}
		if s, ok := strings.CutPrefix(line, "transferred ram: "); ok {
			v.TransferredMB = strings.TrimSuffix(s, " MB")
		}
	}
	return v, v.Status != ""
}

// TestInfoMigrateTracksFleetMigration: for an in-flight cross-host
// migration, `info migrate` on the source VM reports `active` mid-flight
// and, once the migration completes, `completed` with the transferred
// RAM figure.
func TestInfoMigrateTracksFleetMigration(t *testing.T) {
	f, err := fleet.New(3, fleet.WithHosts(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h00", "web", 256); err != nil {
		t.Fatal(err)
	}
	info, err := f.Lookup("web")
	if err != nil {
		t.Fatal(err)
	}
	src := info.Outer

	// The probe rides the shared virtual clock: it fires inside
	// MigrateVM's event rounds. Migration start isn't instant (the
	// destination clone boots first), so keep probing until the active
	// phase is caught, then track it second by second.
	probes := 0
	var probe func()
	probe = func() {
		v, started := hmpMigrateView(t, src)
		if v.Status == "active" {
			probes++
		}
		if !started || v.Status == "active" {
			f.Engine().Schedule(time.Second, "monitor.probe", probe)
		}
	}
	f.Engine().Schedule(time.Second, "monitor.probe", probe)

	if _, err := f.MigrateVM("web", "h01"); err != nil {
		t.Fatal(err)
	}
	if probes == 0 {
		t.Fatal("no probe observed an active migration")
	}

	// After completion the retired source still answers with the final
	// state.
	v, ok := hmpMigrateView(t, src)
	if !ok || v.Status != "completed" {
		t.Fatalf("final status: %+v", v)
	}
	if mb, err := strconv.ParseFloat(v.TransferredMB, 64); err != nil || mb <= 0 {
		t.Fatalf("final transferred ram = %q", v.TransferredMB)
	}
}

// TestInfoStatsShowsFleetFamilies: after real activity (guest exits,
// KSM scanning, a cross-host migration), `info stats` renders every
// metric of the VM's telemetry registry, and the cpu-exit, ksm and
// migration families are all visible through the monitor.
func TestInfoStatsShowsFleetFamilies(t *testing.T) {
	f, err := fleet.New(7, fleet.WithHosts(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h00", "web", 256); err != nil {
		t.Fatal(err)
	}
	info, err := f.Lookup("web")
	if err != nil {
		t.Fatal(err)
	}
	// Guest activity: I/O-heavy work generates VM exits at L1.
	info.Inner.VCPU().Exec(cpu.IOOp("disk write", cpu.Micros(12), 1), 500)
	// Host activity: a KSM scan window.
	host, err := f.Host("h00")
	if err != nil {
		t.Fatal(err)
	}
	host.KSM().Start()
	f.Engine().RunFor(200 * time.Millisecond)
	host.KSM().Stop()
	// Fleet activity: one completed migration.
	if _, err := f.MigrateVM("web", "h01"); err != nil {
		t.Fatal(err)
	}
	info, err = f.Lookup("web")
	if err != nil {
		t.Fatal(err)
	}
	vm := info.Outer

	// "name: value" / "name: count=N sum=S" lines.
	out, err := vm.Monitor().Execute("info stats")
	if err != nil {
		t.Fatalf("info stats: %v", err)
	}
	stats := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("unparseable info stats line %q", line)
		}
		stats[name] = val
	}

	// The three families the detection story observes must be present.
	for _, family := range []string{
		`cpu_exits_total{class="io",level="L1"}`,
		"ksm_pages_scanned_total",
		"migrate_completed_total",
	} {
		if _, ok := stats[family]; !ok {
			t.Errorf("family %q missing from monitor stats:\n%s", family, out)
		}
	}
}
