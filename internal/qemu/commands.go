package qemu

import (
	"fmt"
	"strings"
)

// This file is the monitor's command registry: every HMP command's
// spelling, help line and semantics in one table, dispatched by Monitor.

// command is one monitor command.
type command struct {
	// hmp is the HMP spelling ("migrate", "info status").
	hmp string
	// aliases are extra HMP spellings dispatching to the same command.
	aliases []string
	// help is the command's line in the `help` listing.
	help string
	// run executes the command against the monitor's VM with the
	// argument fields (everything after the verb) and returns what the
	// console prints. The *Monitor is the VM's singleton console state
	// (migration speed cap). Argument errors wrap ErrUnknownCommand.
	run func(m *Monitor, fields []string) (string, error)
}

// oneField insists on exactly one HMP argument and hands it to do.
func oneField(name string, do func(vm *VM, arg string) error) func(*Monitor, []string) (string, error) {
	return func(m *Monitor, fields []string) (string, error) {
		if len(fields) != 1 {
			return "", fmt.Errorf("%w: %s requires a name", ErrUnknownCommand, name)
		}
		return "", do(m.vm, fields[0])
	}
}

// fwdCommand runs do with the single tcp::H-:G argument of the hostfwd
// commands.
func fwdCommand(name string, do func(vm *VM, r FwdRule) error) func(*Monitor, []string) (string, error) {
	return func(m *Monitor, fields []string) (string, error) {
		if len(fields) != 1 {
			return "", fmt.Errorf("%w: %s requires tcp::HOST-:GUEST", ErrUnknownCommand, name)
		}
		rules, err := parseHostFwds("hostfwd=" + fields[0])
		if err != nil || len(rules) != 1 {
			return "", fmt.Errorf("%w: bad hostfwd spec %q", ErrUnknownCommand, fields[0])
		}
		return "", do(m.vm, rules[0])
	}
}

// registry lists every monitor command in `help` order.
var registry = []*command{
	{
		hmp:  "info status",
		help: "info status -- show VM run state",
		run: func(m *Monitor, _ []string) (string, error) {
			return fmt.Sprintf("VM status: %s\n", m.vm.State()), nil
		},
	},
	{
		hmp:  "info name",
		help: "info name -- show VM name",
		run: func(m *Monitor, _ []string) (string, error) {
			return m.vm.Name() + "\n", nil
		},
	},
	{
		hmp:  "info qtree",
		help: "info qtree -- show device tree",
		run: func(m *Monitor, _ []string) (string, error) {
			return renderQtree(m.vm.Config()), nil
		},
	},
	{
		hmp:  "info mtree",
		help: "info mtree -- show memory map",
		run: func(m *Monitor, _ []string) (string, error) {
			return renderMtree(m.vm.Config()), nil
		},
	},
	{
		hmp:  "info mem",
		help: "info mem -- show memory summary",
		run: func(m *Monitor, _ []string) (string, error) {
			return renderMem(m.vm), nil
		},
	},
	{
		hmp:  "info blockstats",
		help: "info blockstats -- show block device statistics",
		run: func(m *Monitor, _ []string) (string, error) {
			var b strings.Builder
			for i := range m.vm.Config().Drives {
				st, _ := m.vm.BlockStatsFor(i)
				fmt.Fprintf(&b,
					"drive%d: rd_bytes=%d wr_bytes=%d rd_operations=%d wr_operations=%d\n",
					i, st.RdBytes, st.WrBytes, st.RdOps, st.WrOps)
			}
			return b.String(), nil
		},
	},
	{
		hmp:  "info network",
		help: "info network -- show network devices and host forwarding",
		run: func(m *Monitor, _ []string) (string, error) {
			return renderNetwork(m.vm.Config()), nil
		},
	},
	{
		hmp:  "info migrate",
		help: "info migrate -- show migration status",
		run: func(m *Monitor, _ []string) (string, error) {
			return renderMigrate(m.vm.MigrationStatus()), nil
		},
	},
	{
		hmp:  "info stats",
		help: "info stats -- show telemetry metrics (counters, gauges, histograms)",
		run: func(m *Monitor, _ []string) (string, error) {
			// A VM with no registry attached reports no statistics,
			// mirroring QEMU's behaviour when no stats provider exists.
			snaps := m.vm.Telemetry().Snapshot()
			if len(snaps) == 0 {
				return "No statistics available.\n", nil
			}
			var b strings.Builder
			for _, s := range snaps {
				switch s.Type {
				case "histogram":
					fmt.Fprintf(&b, "%s: count=%d sum=%d\n", s.Name, s.Count, s.Sum)
				default:
					fmt.Fprintf(&b, "%s: %d\n", s.Name, s.Value)
				}
			}
			return b.String(), nil
		},
	},
	{
		hmp:  "info snapshots",
		help: "info snapshots -- list checkpoints",
		run: func(m *Monitor, _ []string) (string, error) {
			snaps := m.vm.Snapshots()
			if len(snaps) == 0 {
				return "There is no snapshot available.\n", nil
			}
			var b strings.Builder
			b.WriteString("ID  TAG          VM CLOCK\n")
			for i, s := range snaps {
				fmt.Fprintf(&b, "%-3d %-12s %s\n", i+1, s.Name, s.TakenAt)
			}
			return b.String(), nil
		},
	},
	{
		hmp:  "stop",
		help: "stop -- pause the VM",
		run: func(m *Monitor, _ []string) (string, error) {
			return "", m.vm.Pause()
		},
	},
	{
		hmp:  "cont",
		help: "cont -- resume the VM",
		run: func(m *Monitor, _ []string) (string, error) {
			return "", m.vm.Resume()
		},
	},
	{
		hmp:  "migrate",
		help: "migrate [-d] uri -- migrate the VM to uri (e.g. tcp:127.0.0.1:4444)",
		run: func(m *Monitor, fields []string) (string, error) {
			// Accept and ignore -d (detach); the simulated migration
			// engine drives virtual time itself.
			var uri string
			for _, a := range fields {
				if strings.HasPrefix(a, "-") {
					continue
				}
				uri = a
			}
			if uri == "" {
				return "", fmt.Errorf("%w: migrate requires a destination uri", ErrUnknownCommand)
			}
			if m.vm.migrator == nil {
				return "", ErrNoMigrator
			}
			return "", m.vm.migrator.Migrate(m.vm, uri)
		},
	},
	{
		hmp:  "migrate_set_speed",
		help: "migrate_set_speed value -- set maximum migration speed (e.g. 1g)",
		run: func(m *Monitor, fields []string) (string, error) {
			if len(fields) != 1 {
				return "", fmt.Errorf("%w: migrate_set_speed requires a value", ErrUnknownCommand)
			}
			speed, err := parseSize(fields[0])
			if err != nil {
				return "", err
			}
			m.speedLimit = speed
			return "", nil
		},
	},
	{
		hmp:  "migrate_cancel",
		help: "migrate_cancel -- abort the current migration",
		run: func(m *Monitor, _ []string) (string, error) {
			c, ok := m.vm.migrator.(MigrationCanceller)
			if !ok {
				return "", ErrNoMigrator
			}
			return "", c.CancelMigration(m.vm)
		},
	},
	{
		hmp:  "migrate_set_capability",
		help: "migrate_set_capability name on|off -- toggle xbzrle / auto-converge",
		run: func(m *Monitor, fields []string) (string, error) {
			if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
				return "", fmt.Errorf("%w: migrate_set_capability <name> on|off", ErrUnknownCommand)
			}
			c, ok := m.vm.migrator.(CapabilitySetter)
			if !ok {
				return "", ErrNoMigrator
			}
			return "", c.SetMigrationCapability(m.vm, fields[0], fields[1] == "on")
		},
	},
	{
		hmp:  "hostfwd_add",
		help: "hostfwd_add tcp::H-:G -- forward host port H to guest port G",
		run:  fwdCommand("hostfwd_add", (*VM).AddHostFwd),
	},
	{
		hmp:  "hostfwd_remove",
		help: "hostfwd_remove tcp::H-:G -- remove a host forward",
		run:  fwdCommand("hostfwd_remove", (*VM).RemoveHostFwd),
	},
	{
		hmp:  "savevm",
		help: "savevm name -- checkpoint the VM",
		run:  oneField("savevm", (*VM).SaveSnapshot),
	},
	{
		hmp:  "loadvm",
		help: "loadvm name -- restore a checkpoint",
		run:  oneField("loadvm", (*VM).LoadSnapshot),
	},
	{
		hmp:  "delvm",
		help: "delvm name -- delete a checkpoint",
		run:  oneField("delvm", (*VM).DeleteSnapshot),
	},
	{
		hmp:  "system_powerdown",
		help: "system_powerdown -- power down the VM",
		run: func(m *Monitor, _ []string) (string, error) {
			return "", m.vm.Shutdown()
		},
	},
	{
		hmp: "quit", aliases: []string{"q"},
		help: "quit -- terminate QEMU",
		run: func(m *Monitor, _ []string) (string, error) {
			return "", m.vm.Shutdown()
		},
	},
	{
		hmp:  "help",
		help: "help -- show this text",
		run: func(*Monitor, []string) (string, error) {
			return helpListing, nil
		},
	},
}

// helpListing is the rendered `help` output, built from the registry once
// at init (a plain function would form an initialization cycle).
var helpListing string

// hmpIndex is the dispatch table, built from the registry once at init.
var hmpIndex = map[string]*command{}

func init() {
	var b strings.Builder
	for _, c := range registry {
		hmpIndex[c.hmp] = c
		for _, a := range c.aliases {
			hmpIndex[a] = c
		}
		b.WriteString(c.help)
		b.WriteByte('\n')
	}
	helpListing = b.String()
}
