// Command experiments regenerates every table and figure of the CloudSkulk
// paper's evaluation, plus the discussion experiments, scale runs and
// ablations, printing each as ASCII.
//
// Usage:
//
//	experiments [-scale full|quick] [-seed N] [-only artefact] [-workers N]
//	            [-backend name] [-telemetry file] [-progress=false]
//
// The artefacts are the rows of internal/artefacts (artefacts.All), run
// in table order; -only picks one by name (-h lists them). Default runs
// all of them.
//
// -backend selects the hypervisor cost profile every testbed is built on
// (default: the paper's kvm-i7-4790 calibration); every artefact runs
// unchanged on any registered backend.
//
// Sweeps shard their cells across -workers goroutines (default GOMAXPROCS);
// the rendered artefacts are byte-identical for any worker count. Live
// progress (cells done/total, cells/sec, ETA) goes to stderr so stdout
// stays clean for the artefacts themselves.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"cloudskulk"
	"cloudskulk/internal/artefacts"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// progressPrinter returns a sweep-progress callback that redraws one
// stderr status line for the named artefact. Progress goes to stderr so
// stdout carries only the artefacts and stays byte-identical across
// worker counts.
func progressPrinter(name string) func(cloudskulk.SweepProgress) {
	return func(p cloudskulk.SweepProgress) {
		fmt.Fprintf(os.Stderr, "\r\033[K%s: %d/%d cells, %.1f cells/s, ETA %s",
			name, p.Done, p.Total, p.CellsPerSec, p.ETA.Round(time.Second))
	}
}

func run(args []string, stdout io.Writer) error {
	var names []string
	for _, a := range artefacts.All {
		names = append(names, a.Name)
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scale := fs.String("scale", "full", "experiment scale: full (paper) or quick")
	seed := fs.Int64("seed", 1, "simulation seed")
	only := fs.String("only", "", "run a single artefact: "+strings.Join(names, ", "))
	workers := fs.Int("workers", 0, "parallel sweep workers (default GOMAXPROCS)")
	progress := fs.Bool("progress", true, "print live sweep progress to stderr")
	telemetryPath := fs.String("telemetry", "", "write accumulated metrics as JSON lines to this file")
	backend := fs.String("backend", "",
		"hypervisor backend (cost profile): "+strings.Join(cloudskulk.Backends(), ", ")+
			"; default "+cloudskulk.DefaultBackend)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := cloudskulk.LookupBackend(*backend); err != nil {
		return err
	}
	if *only != "" && !slices.Contains(names, *only) {
		return fmt.Errorf("unknown artefact %q", *only)
	}

	var o cloudskulk.ExperimentOptions
	switch *scale {
	case "full":
		o = cloudskulk.DefaultExperimentOptions()
	case "quick":
		o = cloudskulk.QuickExperimentOptions()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	o.Seed = *seed
	o.Workers = *workers
	o.Backend = *backend

	// Open the telemetry file before running anything, so a bad path
	// fails now rather than after the whole evaluation. It is truncated
	// only once every artefact has run, so a failed run leaves an
	// existing file as it was.
	var telemetry *os.File
	if *telemetryPath != "" {
		f, err := os.OpenFile(*telemetryPath, os.O_WRONLY|os.O_CREATE, 0o666)
		if err != nil {
			return err
		}
		defer f.Close()
		telemetry = f
		o.Telemetry = cloudskulk.NewTelemetryRegistry()
	}

	for _, a := range artefacts.All {
		if *only != "" && a.Name != *only {
			continue
		}
		if *progress {
			o.OnProgress = progressPrinter(a.Name)
		}
		res, err := a.Run(o, *scale == "quick")
		if *progress {
			fmt.Fprint(os.Stderr, "\r\033[K")
		}
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		fmt.Fprintf(stdout, "=== %s ===\n%s\n", a.Name, res.Render())
	}

	if telemetry != nil {
		if err := telemetry.Truncate(0); err != nil {
			return err
		}
		if err := o.Telemetry.WriteJSONLines(telemetry); err != nil {
			return err
		}
		if err := telemetry.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "telemetry: wrote metrics to %s\n", *telemetryPath)
	}
	return nil
}
