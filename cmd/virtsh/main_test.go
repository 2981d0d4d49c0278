package main

import (
	"strings"
	"testing"
)

func shell(t *testing.T, args []string, script string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, strings.NewReader(script), &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	return out.String()
}

// TestSingleHostSessionStillWorks: the classic one-machine session is
// unchanged when -hosts is not given, and fleet commands explain what they
// need instead of panicking.
func TestSingleHostSessionStillWorks(t *testing.T) {
	out := shell(t, nil, `
define {"name":"web","memory_mb":64,"vcpus":1,"kvm":true}
start web
list
hosts
`)
	if !strings.Contains(out, "web") || !strings.Contains(out, "running") {
		t.Fatalf("list output missing running domain:\n%s", out)
	}
	if !strings.Contains(out, "error:") || !strings.Contains(out, "-hosts") {
		t.Fatalf("fleet command without a fleet should point at -hosts:\n%s", out)
	}
}

// TestFleetSessionLinkDownBlocksMigration drives the link down / link up
// cycle: migration over a downed fabric link fails with the link-down
// error, and succeeds once the link is restored.
func TestFleetSessionLinkDownBlocksMigration(t *testing.T) {
	out := shell(t, []string{"-hosts", "4"}, `
hosts
fleet spawn h00 web 64
link down h01
fleet migrate web h01
link up h01
fleet migrate web h01
fleet guests
`)
	if !strings.Contains(out, "h03  free 8192 MB  trusted") {
		t.Fatalf("hosts listing missing trusted tag:\n%s", out)
	}
	if !strings.Contains(out, "spawned web on h00") {
		t.Fatalf("spawn missing:\n%s", out)
	}
	if !strings.Contains(out, "link down: h01") {
		t.Fatalf("link down ack missing:\n%s", out)
	}
	if !strings.Contains(out, "error:") || !strings.Contains(out, "link down") ||
		!strings.Contains(out, "migration failed") {
		t.Fatalf("migration over downed link should surface the typed error:\n%s", out)
	}
	if !strings.Contains(out, "migrated web: h00 -> h01") {
		t.Fatalf("migration after link up should succeed:\n%s", out)
	}
	if !strings.Contains(out, "web  on h01  port 2200") {
		t.Fatalf("guest listing should show the new placement:\n%s", out)
	}
}

// TestFleetCommandArityErrors: malformed fleet commands report themselves
// instead of reaching the domain shell.
func TestFleetCommandArityErrors(t *testing.T) {
	out := shell(t, []string{"-hosts", "2"}, `
fleet spawn h00 web
link sideways h01
`)
	if got := strings.Count(out, "error: unknown fleet command"); got != 2 {
		t.Fatalf("want 2 arity errors, got %d:\n%s", got, out)
	}
}

// TestControlPlaneSession drives the tenant/job surface end to end:
// account creation with a quota, an async deploy that stays queued until
// drained, reads answering synchronously, quota rejection, cancellation,
// and the job listing.
func TestControlPlaneSession(t *testing.T) {
	out := shell(t, []string{"-hosts", "4"}, `
tenant add acme 8 512 8
tenant add acme
cp deploy acme web 64
cp list acme
cp drain
cp list acme
cp deploy acme a 16
cp deploy acme b 16
cp deploy acme c 16
cp deploy acme d 16
cp deploy acme e 16
cp cancel job-00000006
cp cancel job-00000002
cp drain
cp usage acme
cp jobs
tenant list
`)
	if !strings.Contains(out, "tenant acme created") {
		t.Fatalf("tenant creation ack missing:\n%s", out)
	}
	if !strings.Contains(out, "error:") || !strings.Contains(out, "tenant already exists") {
		t.Fatalf("duplicate tenant should surface the typed error:\n%s", out)
	}
	if !strings.Contains(out, "job-00000001 queued (deploy acme web 64)") {
		t.Fatalf("deploy submission ack missing:\n%s", out)
	}
	// Before the drain the VM is still deploying; after, it is placed.
	if !strings.Contains(out, "web  64 MB  deploying") {
		t.Fatalf("pre-drain list should show the reservation:\n%s", out)
	}
	if !strings.Contains(out, "web  64 MB  running  on h") {
		t.Fatalf("post-drain list should show placement:\n%s", out)
	}
	// Job 6 (deploy e) overflowed the 4 slots into the queue: cancellable.
	// Job 2 (deploy a) went straight into a slot: refused.
	if !strings.Contains(out, "job-00000006 cancelled") {
		t.Fatalf("cancel of queued job missing:\n%s", out)
	}
	if !strings.Contains(out, "already dispatched") {
		t.Fatalf("cancel of dispatched job should be refused:\n%s", out)
	}
	if !strings.Contains(out, "job-00000006  cancelled") {
		t.Fatalf("job listing should show the cancelled job:\n%s", out)
	}
	if !strings.Contains(out, "acme  vms 5/8  mem 128/512 MB  jobs 0/8") {
		t.Fatalf("usage after drain wrong:\n%s", out)
	}
}

// TestControlPlaneQuotaRejection: a third deploy against a 2-VM quota is
// shed with the typed quota error before ever becoming a job.
func TestControlPlaneQuotaRejection(t *testing.T) {
	out := shell(t, []string{"-hosts", "2"}, `
tenant add acme 2 128 4
cp deploy acme a 16
cp deploy acme b 16
cp deploy acme c 16
`)
	if !strings.Contains(out, "vm quota exceeded") {
		t.Fatalf("third deploy should hit the VM quota:\n%s", out)
	}
}

// TestControlPlaneNeedsFleet: cp/tenant commands in a single-host session
// point at -hosts instead of panicking.
func TestControlPlaneNeedsFleet(t *testing.T) {
	out := shell(t, nil, "tenant add acme\ncp list acme\n")
	if got := strings.Count(out, "needs a fleet session"); got != 2 {
		t.Fatalf("want 2 fleet-session errors, got %d:\n%s", got, out)
	}
}

// TestScenarioCommands drives the arms-race surface from a plain session:
// strategy generation honours the count and the session seed, the roster
// listing names every detector, the matrix runs on the session's backend
// only, and malformed forms report themselves.
func TestScenarioCommands(t *testing.T) {
	if out := shell(t, []string{"-seed", "7"}, "scenario strategies 3\n"); strings.Count(out, "kind=") != 3 {
		t.Fatalf("want 3 strategy wire lines:\n%s", out)
	}
	out := shell(t, []string{"-seed", "7", "-backend", "xen-haswell"}, `
scenario detectors
scenario matrix
scenario strategies zero
scenario bogus
`)
	for _, det := range []string{"dedup-timing", "invariant-checksum", "exit-skew"} {
		if !strings.Contains(out, det) {
			t.Errorf("detector %q missing from roster/matrix output:\n%s", det, out)
		}
	}
	if !strings.Contains(out, "seed=7") || !strings.Contains(out, "xen-haswell") {
		t.Errorf("matrix should run on the session seed and backend:\n%s", out)
	}
	if strings.Contains(out, "kvm-i7-4790") {
		t.Errorf("matrix leaked a backend beyond the session's:\n%s", out)
	}
	if !strings.Contains(out, "must be a positive integer") {
		t.Errorf("bad strategy count should report itself:\n%s", out)
	}
	if !strings.Contains(out, "unknown scenario command") {
		t.Errorf("unknown subcommand should report itself:\n%s", out)
	}
}

// TestScenarioStrategiesSeedBound: the generated strategy list is a pure
// function of -seed — same seed, same wire lines; different seed, a
// different list.
func TestScenarioStrategiesSeedBound(t *testing.T) {
	a := shell(t, []string{"-seed", "3"}, "scenario strategies 6\n")
	b := shell(t, []string{"-seed", "3"}, "scenario strategies 6\n")
	c := shell(t, []string{"-seed", "4"}, "scenario strategies 6\n")
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if a == c {
		t.Fatalf("different seeds produced identical strategies:\n%s", a)
	}
}

// TestHelpListsEveryCommand: `help` prints every row of the one command
// table, so help cannot drift from what the session dispatches.
func TestHelpListsEveryCommand(t *testing.T) {
	out := shell(t, nil, "help\n")
	for _, c := range commands {
		if !strings.Contains(out, c.usage+" ") {
			t.Errorf("command %q missing from help:\n%s", c.usage, out)
		}
	}
	if n := strings.Count(out, "\n"); n != len(commands) {
		t.Errorf("help has %d lines for %d commands:\n%s", n, len(commands), out)
	}
	// quit and exit end the session, so they must be rows too.
	if !strings.Contains(out, "quit") || !strings.Contains(out, "exit") {
		t.Errorf("session terminators missing from help:\n%s", out)
	}
}

// TestStatsAndTraceCommands: a fleet session exposes the telemetry wired
// through the stack — `stats` shows migration counters after a migration
// and `trace` renders it as a span tree; before any migration `trace`
// explains itself instead of printing nothing.
func TestStatsAndTraceCommands(t *testing.T) {
	out := shell(t, []string{"-hosts", "2"}, "trace\n")
	if !strings.Contains(out, "No spans recorded yet.") {
		t.Fatalf("idle session should explain empty trace:\n%s", out)
	}

	out = shell(t, []string{"-hosts", "2"}, `
fleet spawn h00 web 64
fleet migrate web h01
stats
trace
`)
	for _, want := range []string{
		"# TYPE migrate_completed_total counter",
		"migrate_completed_total 1",
		"fleet_migrations_total 1",
		"migrate",
		"outcome=completed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in stats/trace output:\n%s", want, out)
		}
	}
	// The span tree nests the stream and downtime phases under migrate.
	if !strings.Contains(out, "stream") || !strings.Contains(out, "downtime") {
		t.Errorf("span tree missing migration phases:\n%s", out)
	}
}

// TestSingleHostStatsCommand: the one-machine session wires its own
// registry; domain activity shows up in `stats`.
func TestSingleHostStatsCommand(t *testing.T) {
	out := shell(t, nil, `
define {"name":"web","memory_mb":64,"vcpus":1,"kvm":true}
start web
stats
`)
	if !strings.Contains(out, "kvm_vms_created_total 1") ||
		!strings.Contains(out, "kvm_vms_launched_total") {
		t.Fatalf("stats missing kvm counters:\n%s", out)
	}
}

// TestMalformedInputNamesItsCommand: a line whose words match a row but
// whose arguments do not fit it prints exactly one error naming that
// row's usage, and the session carries on (even after `quit now`).
// Unknown verbs, missing arguments and unknown domains report themselves
// the same way.
func TestMalformedInputNamesItsCommand(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{"list --all --extra", "(usage: list [--all])"},
		{"stats x", "(usage: stats)"},
		{"trace x", "(usage: trace)"},
		{"backends x", "(usage: backends)"},
		{"quit now", "(usage: quit)"},
		{"help me", "(usage: help)"},
		{"frobnicate", `unknown command "frobnicate"`},
		{"start", "(usage: start <name>)"},
		{"define", "(usage: define <json>)"},
		{"start ghost", `no such domain: "ghost"`},
	} {
		out := shell(t, nil, tc.line+"\nlist\n")
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if len(lines) != 3 || !strings.HasPrefix(lines[0], "error: ") || !strings.Contains(lines[0], tc.want) {
			t.Errorf("%q: want one error line containing %q, then the list table; got:\n%s", tc.line, tc.want, out)
		}
		if strings.Count(out, "error:") != 1 {
			t.Errorf("%q: want exactly one error line:\n%s", tc.line, out)
		}
	}
}
