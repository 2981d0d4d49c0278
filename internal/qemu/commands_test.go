package qemu

import (
	"errors"
	"strings"
	"testing"
)

// TestRegistryShape: every registry entry has a spelling, a help line
// and a handler, and the dispatch index agrees with the declared names.
func TestRegistryShape(t *testing.T) {
	for _, c := range registry {
		if c.hmp == "" || c.help == "" || c.run == nil {
			t.Fatalf("incomplete registry entry %+v", c)
		}
		if hmpIndex[c.hmp] != c {
			t.Fatalf("hmp index missing %q", c.hmp)
		}
		for _, a := range c.aliases {
			if hmpIndex[a] != c {
				t.Fatalf("alias %q of %q not indexed", a, c.hmp)
			}
		}
	}
}

// TestMonitorSharesCommandState: state changed by one command line is
// observed by the next, because every command runs against the VM and
// its singleton Monitor.
func TestMonitorSharesCommandState(t *testing.T) {
	vm := runningVM(t)

	if _, err := vm.Monitor().Execute("stop"); err != nil {
		t.Fatal(err)
	}
	out, err := vm.Monitor().Execute("info status")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "paused") {
		t.Fatalf("info status does not see the pause: %q", out)
	}

	if _, err := vm.Monitor().Execute("cont"); err != nil {
		t.Fatal(err)
	}
	if !vm.Running() {
		t.Fatal("cont did not resume the VM")
	}
	if out, _ := vm.Monitor().Execute("info status"); !strings.Contains(out, "running") {
		t.Fatalf("info status does not see the resume: %q", out)
	}

	// The speed cap is state on the monitor singleton: a later
	// vm.Monitor() call reports the cap an earlier one set.
	for _, tt := range []struct {
		arg  string
		want int64
	}{{"2m", 2 << 20}, {"1g", 1 << 30}} {
		if _, err := vm.Monitor().Execute("migrate_set_speed " + tt.arg); err != nil {
			t.Fatal(err)
		}
		if got := vm.Monitor().SpeedLimit(); got != tt.want {
			t.Fatalf("speed after %q = %d, want %d", tt.arg, got, tt.want)
		}
	}
}

// TestHMPErrorsWrapSentinels: every HMP failure mode is errors.Is-matchable
// against the package sentinels.
func TestHMPErrorsWrapSentinels(t *testing.T) {
	vm := runningVM(t)
	m := vm.Monitor()
	unknown := []string{
		"bogus",
		"info",
		"info bogus",
		"migrate",
		"migrate -d",
		"migrate_set_speed",
		"migrate_set_capability xbzrle maybe",
		"hostfwd_add",
		"hostfwd_add nonsense",
		"savevm",
	}
	for _, cmd := range unknown {
		if _, err := m.Execute(cmd); !errors.Is(err, ErrUnknownCommand) {
			t.Fatalf("%q err = %v, want ErrUnknownCommand", cmd, err)
		}
	}
	noMigrator := []string{
		"migrate tcp:127.0.0.1:4444",
		"migrate_cancel",
		"migrate_set_capability xbzrle on",
	}
	for _, cmd := range noMigrator {
		if _, err := m.Execute(cmd); !errors.Is(err, ErrNoMigrator) {
			t.Fatalf("%q err = %v, want ErrNoMigrator", cmd, err)
		}
	}
}

// TestHelpListsEveryDocumentedCommand: `help` is generated from the
// registry, so each documented command shows up.
func TestHelpListsEveryDocumentedCommand(t *testing.T) {
	vm := runningVM(t)
	out, err := vm.Monitor().Execute("help")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range registry {
		if !strings.Contains(out, c.help) {
			t.Fatalf("help output missing %q", c.help)
		}
	}
	if !strings.Contains(out, "migrate_cancel") || !strings.Contains(out, "info qtree") {
		t.Fatalf("help = %q", out)
	}
}
