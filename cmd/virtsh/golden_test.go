package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// domainScript walks one domain through its whole lifecycle on a
// single-host session, then snapshots the telemetry it left behind.
const domainScript = `
define {"name":"web","memory_mb":16,"vcpus":1,"kvm":true}
list --all
start web
list
dumpjson web
suspend web
resume web
reboot web
destroy web
undefine web
list --all
stats
`

// TestSessionTranscriptGolden pins the SHA-256 of complete virtsh
// sessions: the fleet session at two seeds and the single-host domain
// lifecycle. Any change to what a well-formed command prints shows up
// here. To re-pin a row, empty its hash and paste the CAPTURE line.
func TestSessionTranscriptGolden(t *testing.T) {
	for _, g := range []struct {
		name   string
		args   []string
		script string
		hash   string
	}{
		{"fleet-seed1", []string{"-seed", "1", "-hosts", "4"}, fleetScript,
			"97e1b264a21098d96cdc12e552326f797dc1fddfd48456d8898330f7870ec9cf"},
		{"fleet-seed7", []string{"-seed", "7", "-hosts", "4"}, fleetScript,
			"6711ef91040aa11b00883a18c2ed759b94fb7b1aa80c7550be57d7fafda043b5"},
		{"domain", nil, domainScript,
			"af04713fa2cd0fa66fd2805d14caadb157fee9c24153bdcc07e7af598278ed96"},
	} {
		t.Run(g.name, func(t *testing.T) {
			sum := sha256.Sum256([]byte(shell(t, g.args, g.script)))
			if got := hex.EncodeToString(sum[:]); got != g.hash {
				t.Errorf("CAPTURE %s %s", g.name, got)
			}
		})
	}
}

// TestShellCommands walks one domain through every lifecycle verb and
// checks each acknowledgement, so the domain golden above pins real
// output rather than a run of errors.
func TestShellCommands(t *testing.T) {
	out := shell(t, nil, domainScript)
	if strings.Contains(out, "error:") {
		t.Fatalf("domain script hit an error:\n%s", out)
	}
	for _, want := range []string{"Domain web defined", "shut off", "running", `"memory_mb": 16`,
		"Domain web has been undefined", "kvm_vms_created_total 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}
