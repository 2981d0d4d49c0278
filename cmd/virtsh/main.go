// Command virtsh is a virsh-like shell over a simulated host: it reads
// management commands from stdin (or a script via -f) and executes them
// against one fresh simulation, printing each result. Because the host is
// simulated and in-memory, a session *is* the lifetime of the world —
// great for scripting demos and reproducing management-plane flows.
//
// Example session:
//
//	define {"name":"web","memory_mb":1024,"vcpus":1,"kvm":true}
//	start web
//	list
//	reboot web
//	destroy web
//
// With -hosts N the session runs against an N-host fleet instead of a
// single machine, and fleet-level commands become available alongside the
// usual domain commands (which then operate on the first host, h00):
//
//	hosts                          list hosts, trust tags, free memory
//	link down <host>               take every fabric link of <host> down
//	link up <host>                 bring them back
//	fleet spawn <host> <guest> <memMB>
//	fleet migrate <guest> <host>   cross-host live migration
//	fleet guests                   list guests and their placement
//
// A fleet session also carries a control plane — the tenant-facing
// management API. `tenant add`/`tenant list` manage accounts; `cp`
// submits API requests in the canonical wire form (mutations become
// async jobs, reads answer immediately); `cp jobs`, `cp cancel`, and
// `cp drain` watch and settle the job queue:
//
//	tenant add acme 4 256 2        quota: 4 VMs, 256 MB, 2 jobs
//	cp deploy acme web 64          -> job-00000001 queued
//	cp drain                       run the clock until jobs settle
//	cp list acme                   web  64 MB  running  on h02
//
// The adversarial scenario engine is reachable from any session:
// `scenario strategies [n]` prints seeded attacker strategies in their
// wire form, `scenario detectors` the detector roster, and
// `scenario matrix` runs the full strategies-times-detectors coverage
// matrix on the session's backend — all pure functions of -seed and
// -backend.
//
// Every session carries a telemetry registry wired through the whole
// stack; `stats` snapshots it (Prometheus text format) and `trace` renders
// completed migrations as span trees. `help` lists everything.
//
// Usage:
//
//	virtsh [-seed N] [-hosts N] [-backend name] [-f script]
//
// -backend builds the session's host(s) on the named hypervisor cost
// profile (default: the paper's kvm-i7-4790); `backends` lists the
// registry and shows each host's assignment.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"

	"cloudskulk/internal/controlplane"
	"cloudskulk/internal/experiments"
	"cloudskulk/internal/fleet"
	"cloudskulk/internal/hv"
	"cloudskulk/internal/kvm"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/migrate"
	"cloudskulk/internal/report"
	"cloudskulk/internal/scenario"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
	"cloudskulk/internal/virtman"
	"cloudskulk/internal/vnet"

	_ "cloudskulk/internal/hv/backends"
)

// session is the world one virtsh run drives. fleet and plane are nil
// outside -hosts sessions; host is then the only machine, and otherwise
// the fleet's first host, h00.
type session struct {
	seed    int64
	backend string
	host    *kvm.Host
	mgr     *virtman.Manager
	fleet   *fleet.Fleet
	plane   *controlplane.Plane
	reg     *telemetry.Registry
	spans   *telemetry.SpanTracer
}

// command is one row of the shell. verb is one or two words; a line runs
// the row whose verb is its longest prefix, with the remaining words as
// args. maxArgs < 0 means unbounded.
type command struct {
	verb, usage, desc string
	// group labels the row's unknown-command error; fleet rows need a
	// -hosts session.
	group            string
	fleet            bool
	minArgs, maxArgs int
	run              func(s *session, args []string) (string, error)
}

// commands is the whole shell: help, dispatch, arity errors and the
// fleet-session check all read it. It is filled in init because `help`
// walks it.
var commands []command

// errQuit ends the session.
var errQuit = errors.New("quit")

func init() {
	commands = []command{
		{"list", "list [--all]", "active (or all) domains", "domain", false, 0, 1, listDomains},
		{"define", "define <json>", "define a domain from inline JSON", "domain", false, 1, -1,
			func(s *session, a []string) (string, error) {
				d, err := s.mgr.DefineJSON([]byte(strings.Join(a, " ")))
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("Domain %s defined\n", d.Def.Name), nil
			}},
		domainVerb("undefine", "remove an inactive definition", "Domain %s has been undefined", (*virtman.Manager).Undefine),
		domainVerb("start", "create and boot", "Domain %s started", (*virtman.Manager).Start),
		domainVerb("destroy", "hard stop", "Domain %s destroyed", (*virtman.Manager).Destroy),
		domainVerb("reboot", "guest reboot", "Domain %s is being rebooted", (*virtman.Manager).Reboot),
		domainVerb("suspend", "pause", "Domain %s suspended", (*virtman.Manager).Suspend),
		domainVerb("resume", "unpause", "Domain %s resumed", (*virtman.Manager).Resume),
		{"migrate", "migrate <name> <uri>", "live migrate", "domain", false, 2, 2,
			func(s *session, a []string) (string, error) {
				if err := s.mgr.Migrate(a[0], a[1]); err != nil {
					return "", err
				}
				return fmt.Sprintf("Migration of %s completed\n", a[0]), nil
			}},
		{"dumpjson", "dumpjson <name>", "print the definition", "domain", false, 1, 1,
			func(s *session, a []string) (string, error) {
				raw, err := s.mgr.DumpJSON(a[0])
				if err != nil {
					return "", err
				}
				return string(raw) + "\n", nil
			}},
		{"autostart-all", "autostart-all", "start all autostart domains", "domain", false, 0, 0,
			func(s *session, _ []string) (string, error) {
				started, err := s.mgr.AutostartAll()
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("Started: %s\n", strings.Join(started, ", ")), nil
			}},

		{"help", "help", "this listing", "session", false, 0, 0,
			func(*session, []string) (string, error) { return help(), nil }},
		{"stats", "stats", "telemetry snapshot (Prometheus text format)", "session", false, 0, 0,
			func(s *session, _ []string) (string, error) {
				return orElse(s.reg.PromText(), "No statistics recorded yet.\n"), nil
			}},
		{"trace", "trace", "completed migrations as span trees", "session", false, 0, 0,
			func(s *session, _ []string) (string, error) {
				return orElse(s.spans.Tree(), "No spans recorded yet.\n"), nil
			}},
		{"backends", "backends", "list registered hypervisor backends and host assignments", "session", false, 0, 0,
			func(s *session, _ []string) (string, error) { return s.backendsList(), nil }},
		{"quit", "quit", "end the session", "session", false, 0, 0, quit},
		{"exit", "exit", "end the session", "session", false, 0, 0, quit},

		{"hosts", "hosts", "list hosts, trust tags, free memory", "fleet", true, 0, 0, listHosts},
		{"link down", "link down <host>", "take every fabric link of <host> down", "fleet", true, 1, 1, setLink("down")},
		{"link up", "link up <host>", "bring them back", "fleet", true, 1, 1, setLink("up")},
		{"fleet spawn", "fleet spawn <host> <guest> <memMB>", "place and boot a guest", "fleet", true, 3, 3, fleetSpawn},
		{"fleet migrate", "fleet migrate <guest> <host>", "cross-host live migration", "fleet", true, 2, 2, fleetMigrate},
		{"fleet guests", "fleet guests", "list guests and their placement", "fleet", true, 0, 0, fleetGuests},

		{"tenant add", "tenant add <name> [vms memMB jobs]", "create a tenant account, optionally quota-bounded", "tenant", true, 1, 4, tenantAdd},
		{"tenant list", "tenant list", "list tenants and their usage against quota", "tenant", true, 0, 0, tenantList},
		{"cp", "cp <request>", "control-plane API call: deploy/stop/migrate/snapshot/list/usage", "cp", true, 1, -1, cpRequest},
		{"cp jobs", "cp jobs", "list control-plane jobs and their states", "cp", true, 0, 0, cpJobs},
		{"cp cancel", "cp cancel <job>", "cancel a still-queued job", "cp", true, 1, 1,
			func(s *session, a []string) (string, error) {
				if err := s.plane.CancelJob(a[0]); err != nil {
					return "", err
				}
				return fmt.Sprintf("%s cancelled\n", a[0]), nil
			}},
		{"cp drain", "cp drain", "run the clock until every job reaches a terminal state", "cp", true, 0, 0,
			func(s *session, _ []string) (string, error) {
				before := s.plane.Outstanding()
				s.plane.Drain()
				return fmt.Sprintf("drained: %d job(s) settled\n", before), nil
			}},

		{"scenario strategies", "scenario strategies [n]", "generate n seeded attacker strategies in wire form (default 5)", "scenario", false, 0, 1, scenarioStrategies},
		{"scenario detectors", "scenario detectors", "list the detector roster the arms-race matrix runs", "scenario", false, 0, 0,
			func(*session, []string) (string, error) {
				return strings.Join(scenario.RosterNames(), "\n") + "\n", nil
			}},
		{"scenario matrix", "scenario matrix", "strategies x detectors coverage matrix on this session's backend", "scenario", false, 0, 0,
			func(s *session, _ []string) (string, error) {
				r, err := scenario.RunMatrix(scenario.MatrixConfig{
					Seed:     s.seed,
					Backends: []string{s.backend},
					Workers:  1,
				})
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}},

		{"shard info", "shard info", "sharded-world sizes and synchronization parameters", "shard", false, 0, 0, shardInfo},
		{"shard spawn", "shard spawn <memMB>", "fork a guest from a golden image and show the COW bookkeeping", "shard", false, 1, 1, shardSpawn},
		{"shard megastorm", "shard megastorm", "quick sharded-cloud run: provision, churn, migrate, audit", "shard", false, 0, 0,
			func(s *session, _ []string) (string, error) {
				r, err := experiments.MegaStorm(experiments.Options{Seed: s.seed, Backend: s.backend, Workers: 1},
					experiments.QuickMegaStormConfig())
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			}},
	}
}

// domainVerb is a lifecycle row: act on the named domain, then print
// libvirt's acknowledgement (ack holds one %s for the name).
func domainVerb(verb, desc, ack string, act func(*virtman.Manager, string) error) command {
	return command{verb, verb + " <name>", desc, "domain", false, 1, 1,
		func(s *session, a []string) (string, error) {
			if err := act(s.mgr, a[0]); err != nil {
				return "", err
			}
			return fmt.Sprintf(ack+"\n", a[0]), nil
		}}
}

func quit(*session, []string) (string, error) { return "", errQuit }

func orElse(out, empty string) string {
	if out == "" {
		return empty
	}
	return out
}

// help renders the table, one aligned line per row.
func help() string {
	width := 0
	for _, c := range commands {
		width = max(width, len(c.usage))
	}
	var b strings.Builder
	for _, c := range commands {
		desc := c.desc
		if c.fleet {
			desc += " (fleet)"
		}
		fmt.Fprintf(&b, "%-*s  %s\n", width, c.usage, desc)
	}
	return b.String()
}

// exec runs one command line: it picks the row whose verb is the line's
// longest prefix, then checks the fleet session and the arity the row
// declares before running it.
func (s *session) exec(line string) (string, error) {
	f := strings.Fields(line)
	var c *command
	group, verbLen := "", 0
	for i := range commands {
		v := strings.Fields(commands[i].verb)
		if v[0] == f[0] {
			group = commands[i].group + " "
		}
		if len(v) > verbLen && len(v) <= len(f) && slices.Equal(v, f[:len(v)]) {
			c, verbLen = &commands[i], len(v)
		}
	}
	if c == nil {
		return "", fmt.Errorf("unknown %scommand %q", group, line)
	}
	if c.fleet && s.fleet == nil {
		return "", fmt.Errorf("%q needs a fleet session (run with -hosts N)", f[0])
	}
	args := f[verbLen:]
	if len(args) < c.minArgs || (c.maxArgs >= 0 && len(args) > c.maxArgs) {
		return "", fmt.Errorf("unknown %s command %q (usage: %s)", c.group, line, c.usage)
	}
	return c.run(s, args)
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "virtsh:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("virtsh", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	hosts := fs.Int("hosts", 0, "run against an N-host fleet instead of one machine")
	script := fs.String("f", "", "script file (default: stdin)")
	backendName := fs.String("backend", "",
		"hypervisor backend (cost profile): "+strings.Join(hv.Names(), ", ")+
			"; default "+hv.DefaultName)
	if err := fs.Parse(args); err != nil {
		return err
	}
	backend, err := hv.Lookup(*backendName)
	if err != nil {
		return err
	}

	s := &session{seed: *seed, backend: backend.Name}
	if *hosts > 0 {
		s.fleet, err = fleet.New(*seed, fleet.WithHosts(*hosts), fleet.WithBackend(*backendName))
		if err != nil {
			return err
		}
		if s.host, err = s.fleet.Host(s.fleet.HostNames()[0]); err != nil {
			return err
		}
		s.plane = controlplane.New(s.fleet, controlplane.Config{})
		s.reg, s.spans = s.fleet.Telemetry(), s.fleet.Spans()
	} else {
		eng := sim.NewEngine(*seed)
		network := vnet.New(eng)
		if s.host, err = kvm.NewHostWithBackend(eng, network, "host", backend); err != nil {
			return err
		}
		me := migrate.NewEngine(eng, network)
		s.host.SetMigrationService(me)
		s.reg = telemetry.NewRegistry()
		s.spans = telemetry.NewSpanTracer(eng)
		s.host.SetTelemetry(s.reg)
		network.SetTelemetry(s.reg)
		me.SetTelemetry(s.reg)
		me.SetSpans(s.spans)
	}
	s.mgr = virtman.NewManager(s.host)

	input := stdin
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		input = f
	}

	sc := bufio.NewScanner(input)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out, err := s.exec(line)
		if errors.Is(err, errQuit) {
			break
		}
		if err != nil {
			fmt.Fprintf(stdout, "error: %v\n", err)
			continue
		}
		fmt.Fprint(stdout, out)
	}
	return sc.Err()
}

func listDomains(s *session, a []string) (string, error) {
	all := len(a) == 1
	if all && a[0] != "--all" {
		return "", fmt.Errorf("list: unknown option %q (usage: list [--all])", a[0])
	}
	t := report.Table{Headers: []string{"Name", "State"}}
	for _, d := range s.mgr.List() {
		if all || d.Active() {
			t.AddRow(d.Def.Name, string(d.State()))
		}
	}
	return t.Render(), nil
}

// backendsList renders the backend registry (default starred) followed by
// the session's host-to-backend assignments.
func (s *session) backendsList() string {
	var b strings.Builder
	b.WriteString("Registered backends:\n")
	width := 0
	for _, be := range hv.All() {
		width = max(width, len(be.Name))
	}
	for _, be := range hv.All() {
		marker := " "
		if be.Name == hv.DefaultName {
			marker = "*"
		}
		fmt.Fprintf(&b, "%s %-*s  %s\n", marker, width, be.Name, be.Description)
	}
	b.WriteString("Host assignments:\n")
	if s.fleet == nil {
		fmt.Fprintf(&b, "  %s  %s\n", s.host.Name(), s.host.Backend().Name)
		return b.String()
	}
	for _, name := range s.fleet.HostNames() {
		h, err := s.fleet.Host(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "  %s  %s\n", name, h.Backend().Name)
	}
	return b.String()
}

// Scenario rows are the attacker/detector arms-race surface. Strategies
// and the coverage matrix derive from the session seed and backend alone,
// so they replay byte-identically; the matrix builds its own per-cell
// worlds and leaves the session's host untouched.
func scenarioStrategies(s *session, a []string) (string, error) {
	n := 5
	if len(a) == 1 {
		var err error
		if n, err = strconv.Atoi(a[0]); err != nil || n <= 0 {
			return "", fmt.Errorf("scenario strategies: count must be a positive integer, got %q", a[0])
		}
	}
	return scenario.RenderSpecs(scenario.Generate(s.seed, n)) + "\n", nil
}

// Shard rows are the sharded-world and copy-on-write golden-image
// surface, pure functions of the session seed and backend: `info` prints
// the grid sizes, `spawn` demonstrates the COW fork bookkeeping on a
// golden image, and `megastorm` runs the quick-scale sharded cloud end to
// end.
func shardInfo(*session, []string) (string, error) {
	var b strings.Builder
	render := func(label string, c experiments.MegaStormConfig) {
		fmt.Fprintf(&b, "%s: %d shards x %d hosts x %d guests = %d guests on %d hosts, %d MB golden image\n",
			label, c.Shards, c.HostsPerShard, c.GuestsPerHost,
			c.Shards*c.HostsPerShard*c.GuestsPerHost, c.Shards*c.HostsPerShard, c.GuestMemMB)
	}
	render("quick", experiments.QuickMegaStormConfig())
	render("full ", experiments.DefaultMegaStormConfig())
	b.WriteString("sync: conservative rounds, lookahead = inter-shard link latency (2ms),\n")
	b.WriteString("      exchange order (At, From, Seq) — artefacts byte-identical at any worker count\n")
	return b.String(), nil
}

func shardSpawn(s *session, a []string) (string, error) {
	memMB, err := strconv.ParseInt(a[0], 10, 64)
	if err != nil || memMB <= 0 || memMB > 4096 {
		return "", fmt.Errorf("shard spawn: memMB must be in 1..4096, got %q", a[0])
	}
	golden := mem.NewSpace("golden", memMB<<20)
	golden.FillRandom(rand.New(rand.NewSource(s.seed)), 0.25)
	tmpl := mem.Freeze("golden", golden)
	fork := mem.SpawnFrom("guest", tmpl)
	var b strings.Builder
	fmt.Fprintf(&b, "template: %d pages, hash %016x\n", tmpl.NumPages(), tmpl.ContentHash())
	fmt.Fprintf(&b, "fork:     shares all pages, hash %016x, materialized chunks %d\n",
		fork.ContentHash(), fork.MaterializedChunks())
	if _, err := fork.Write(0, 0xC0FFEE); err != nil {
		return "", err
	}
	copies := fork.ForkStats()
	fmt.Fprintf(&b, "write(0): hash %016x, materialized chunks %d (copied %d)\n",
		fork.ContentHash(), fork.MaterializedChunks(), copies)
	fmt.Fprintf(&b, "template: untouched, hash %016x, %d spawns\n", tmpl.ContentHash(), tmpl.Spawns())
	return b.String(), nil
}

// Control-plane rows (`tenant ...`, `cp ...`). Mutations submit async
// jobs that sit queued until `cp drain` (or any other engine activity)
// advances the virtual clock — the asynchrony is the point.
func tenantAdd(s *session, a []string) (string, error) {
	var q controlplane.Quota
	if len(a) > 1 {
		var err1, err2, err3 error
		if len(a) == 4 {
			q.MaxVMs, err1 = strconv.Atoi(a[1])
			q.MaxMemMB, err2 = strconv.ParseInt(a[2], 10, 64)
			q.MaxJobs, err3 = strconv.Atoi(a[3])
		}
		if len(a) != 4 || err1 != nil || err2 != nil || err3 != nil {
			return "", fmt.Errorf("tenant add: quota must be three integers (vms memMB jobs)")
		}
	}
	if err := s.plane.CreateTenant(a[0], q); err != nil {
		return "", err
	}
	return fmt.Sprintf("tenant %s created\n", a[0]), nil
}

func tenantList(s *session, _ []string) (string, error) {
	var b strings.Builder
	for _, name := range s.plane.Tenants() {
		u, err := s.plane.TenantUsage(name)
		if err != nil {
			return "", err
		}
		writeUsage(&b, u)
	}
	return b.String(), nil
}

func writeUsage(b *strings.Builder, u controlplane.Usage) {
	fmt.Fprintf(b, "%s  vms %d/%d  mem %d/%d MB  jobs %d/%d\n",
		u.Tenant, u.VMs, u.Quota.MaxVMs, u.MemMB, u.Quota.MaxMemMB, u.ActiveJobs, u.Quota.MaxJobs)
}

func cpJobs(s *session, _ []string) (string, error) {
	var b strings.Builder
	for _, j := range s.plane.Jobs() {
		fmt.Fprintf(&b, "%s  %-9s  %s", j.ID, j.State, j.Request.Render())
		if j.Host != "" {
			fmt.Fprintf(&b, "  -> %s", j.Host)
		}
		if j.Retries > 0 {
			fmt.Fprintf(&b, "  (%d retries)", j.Retries)
		}
		if j.Err != nil {
			fmt.Fprintf(&b, "  [%v]", j.Err)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// cpRequest submits one API request in its wire form: mutations become
// async jobs, reads answer immediately.
func cpRequest(s *session, a []string) (string, error) {
	req, err := controlplane.ParseRequest(strings.Join(a, " "))
	if err != nil {
		return "", err
	}
	if req.Op.Mutation() {
		j, err := s.plane.Submit(req)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %s (%s)\n", j.ID, j.State, j.Request.Render()), nil
	}
	var b strings.Builder
	switch req.Op {
	case controlplane.OpList:
		vms, err := s.plane.ListVMs(req.Tenant)
		if err != nil {
			return "", err
		}
		for _, v := range vms {
			fmt.Fprintf(&b, "%s  %d MB  %s", v.Name, v.MemMB, v.State)
			if v.Host != "" {
				fmt.Fprintf(&b, "  on %s", v.Host)
			}
			b.WriteString("\n")
		}
	case controlplane.OpUsage:
		u, err := s.plane.TenantUsage(req.Tenant)
		if err != nil {
			return "", err
		}
		writeUsage(&b, u)
	}
	return b.String(), nil
}

// Fleet rows: placement, fabric faults and cross-host migration.
func listHosts(s *session, _ []string) (string, error) {
	var b strings.Builder
	for _, h := range s.fleet.HostNames() {
		tag := ""
		if s.fleet.Trusted(h) {
			tag = "  trusted"
		}
		fmt.Fprintf(&b, "%s  free %d MB%s\n", h, s.fleet.FreeMemMB(h), tag)
	}
	return b.String(), nil
}

// setLink is the run of `link down` (dir "down") or `link up`.
func setLink(dir string) func(*session, []string) (string, error) {
	return func(s *session, a []string) (string, error) {
		if err := s.fleet.SetHostLink(a[0], dir == "down"); err != nil {
			return "", err
		}
		return fmt.Sprintf("link %s: %s\n", dir, a[0]), nil
	}
}

func fleetSpawn(s *session, a []string) (string, error) {
	memMB, err := strconv.ParseInt(a[2], 10, 64)
	if err != nil {
		return "", fmt.Errorf("fleet spawn: bad memory size %q", a[2])
	}
	if _, err := s.fleet.StartGuest(a[0], a[1], memMB); err != nil {
		return "", err
	}
	return fmt.Sprintf("spawned %s on %s\n", a[1], a[0]), nil
}

func fleetMigrate(s *session, a []string) (string, error) {
	rep, err := s.fleet.MigrateVM(a[0], a[1])
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "migrated %s: %s -> %s in %s", rep.Guest, rep.From, rep.To, rep.Duration)
	if rep.Retries > 0 {
		fmt.Fprintf(&b, " (%d retries)", rep.Retries)
	}
	b.WriteString("\n")
	return b.String(), nil
}

func fleetGuests(s *session, _ []string) (string, error) {
	var b strings.Builder
	for _, g := range s.fleet.GuestNames() {
		info, err := s.fleet.Lookup(g)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s  on %s  port %d\n", g, info.Host, info.ServicePort)
	}
	return b.String(), nil
}
