// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It runs one workload (megastorm, cloudload or detect) as a
// closed loop of runs, each in a fresh process, for a fixed number of
// seconds, and prints the medians as one JSON line. README.md in this
// directory records why each workload and metric was chosen.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload megastorm --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics (run_s, setup_s, cpu_s,
// peak_rss_mb); --trace 1 alternates untraced and traced runs and
// reports the per-layer metrics. --workload all runs every workload in
// turn. --cpuprofile/--memprofile write pprof profiles of the first
// traced run.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// workers is the runner.Map pool size every workload runs with: the
// number of cores of the 2-vCPU machines the benchmark is tuned on, so
// there are never more busy threads than cores.
const workers = 2

// budget bounds one invocation, children included.
const budget = 170 * time.Second

// spansDir receives the traced runs' spans, relative to the repository
// root; run.sh builds into the same directory.
const spansDir = ".bench_build"

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	cpuprofile string
	memprofile string

	child string // "run" or "facade": the process is one measured run
	run   int
}

func main() {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "megastorm, cloudload, detect, or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (held-out seed: 7)")
	fs.IntVar(&o.seconds, "seconds", 30, "how long to keep starting runs")
	fs.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics from traced runs")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the first traced run here")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile of the first traced run here")
	fs.StringVar(&o.child, "child", "", "internal: run one measured run in this process")
	fs.IntVar(&o.run, "run", 0, "internal: run id stamped on spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := dispatch(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	names := []string{o.workload}
	if o.workload == "all" && o.child == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		w, ok := lookupWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q (want megastorm, cloudload, detect or all)", name)
		}
		p := params{seed: o.seed, workers: workers}
		var err error
		switch o.child {
		case "":
			err = measure(w, o)
		case "run":
			err = childRun(w, p, o)
		case "facade":
			err = childFacade(w, p)
		default:
			err = fmt.Errorf("unknown --child mode %q", o.child)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// childFacade renders the facade's artefact and prints its sha256.
func childFacade(w workload, p params) error {
	art, err := w.facade(p)
	if err != nil {
		return err
	}
	fmt.Println(sha(art))
	return nil
}

// childRun is one measured run in this process; it prints the sample as
// JSON.
func childRun(w workload, p params, o options) error {
	traced := o.trace == 1
	if traced && o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	s, err := measureRun(w, p, newTracer(traced, o.run))
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if traced && o.memprofile != "" {
		f, err := os.Create(o.memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	s.PeakRSSMB = rss
	return json.NewEncoder(os.Stdout).Encode(s)
}

// measureRun runs set-up, then the scenario up to the rendered and
// checked artefact, and returns what the process itself can measure.
func measureRun(w workload, p params, t *tracer) (sample, error) {
	t.begin("bench.setup")
	sc, err := w.setup(p, t)
	t.end()
	if err != nil {
		return sample{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	setupEnd := time.Now()
	t.begin("bench.run")
	out, err := sc(t)
	if err != nil {
		return sample{}, fmt.Errorf("%s run: %w", w.name, err)
	}
	sum := sha(out.artefact)
	t.end()
	return sample{
		Workers:          p.workers,
		SetupEndUnixNano: setupEnd.UnixNano(),
		RunS:             time.Since(setupEnd).Seconds(),
		SHA256:           sum,
		Problems:         out.problems,
		Counts:           out.counts,
		Spans:            t.spans,
	}, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// spawn runs this executable as a child process and returns its stdout.
func spawn(ctx context.Context, args ...string) ([]byte, *os.ProcessState, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	return out, cmd.ProcessState, err
}

func childArgs(w workload, o options, mode string, traced bool, run int) []string {
	args := []string{"--child", mode, "--workload", w.name, "--seed", strconv.FormatInt(o.seed, 10),
		"--run", strconv.Itoa(run)}
	if traced {
		args = append(args, "--trace", "1")
	}
	if traced && run == 1 {
		args = append(args, "--cpuprofile", o.cpuprofile, "--memprofile", o.memprofile)
	}
	return args
}

// measure is the closed loop: one fresh process per run, the next started
// when the previous one has rendered and checked its artefact, for
// o.seconds seconds.
func measure(w workload, o options) error {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	traced := o.trace == 1

	// Once per invocation, outside the timed runs: the facade's artefact,
	// which every run's artefact must match byte for byte.
	out, _, err := spawn(ctx, childArgs(w, o, "facade", false, 0)...)
	if err != nil {
		return fmt.Errorf("%s facade: %w", w.name, err)
	}
	facadeSHA := strings.TrimSpace(string(out))

	var plain, tracedRuns []sample
	var counts map[string]float64
	attempted, failed := 0, 0
	identical := true
	var problems []string
	start := time.Now()
	for run := 0; ; run++ {
		isTraced := traced && run%2 == 1
		attempted++
		s, err := runOnce(ctx, w, o, isTraced, run)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("%s: out of time after %d runs: %w", w.name, run, err)
			}
			failed++
			problems = append(problems, err.Error())
		} else {
			bad := s.Problems
			if s.SHA256 != facadeSHA {
				identical = false
				bad = append(bad, fmt.Sprintf("artefact sha256 %s differs from the facade's %s", s.SHA256, facadeSHA))
			}
			if counts == nil {
				counts = s.Counts
			} else if !sameCounts(counts, s.Counts) {
				bad = append(bad, "layer counts differ from the first run's")
			}
			if len(bad) > 0 {
				failed++
				problems = append(problems, bad...)
			}
			fmt.Fprintf(os.Stderr, "%s run %d (traced=%t): run_s=%.4f setup_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f\n",
				w.name, run, isTraced, s.RunS, s.SetupS, s.CPUS, s.PeakRSSMB)
			if isTraced {
				tracedRuns = append(tracedRuns, s)
			} else {
				plain = append(plain, s)
			}
		}
		enough := len(plain) > 0 && (!traced || len(tracedRuns) > 0)
		if enough && time.Since(start) >= time.Duration(o.seconds)*time.Second {
			break
		}
		if !enough && attempted >= 4 && failed == attempted {
			break
		}
	}
	if len(plain) == 0 || (traced && len(tracedRuns) == 0) {
		return fmt.Errorf("%s: no run completed: %s", w.name, strings.Join(problems, "; "))
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "%s: FAILED CHECK: %s\n", w.name, p)
	}

	fmt.Printf("artefact %s seed=%d facade_sha256=%s identical=%t\n",
		w.name, o.seed, facadeSHA, identical)
	specs, metrics, n := endToEnd, medianEndToEnd(plain), len(plain)
	if traced {
		specs, metrics, n = perLayer, medianPerLayer(plain, tracedRuns), len(tracedRuns)
		if err := writeSpans(w, o, tracedRuns); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d: %d runs attempted, %d failed, fail_frac %.4g (frac, n=%d)\n",
		w.name, o.seed, attempted, failed, float64(failed)/float64(attempted), attempted)
	for _, s := range specs {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %-5s n=%d\n", s.name, metrics[s.name], s.unit, n)
	}
	return printResult(failed == 0, attempted, failed, specs, metrics)
}

func runOnce(ctx context.Context, w workload, o options, traced bool, run int) (sample, error) {
	t0 := time.Now()
	out, ps, err := spawn(ctx, childArgs(w, o, "run", traced, run)...)
	if err != nil {
		return sample{}, fmt.Errorf("run %d: %w", run, err)
	}
	var s sample
	if err := json.Unmarshal(out, &s); err != nil {
		return sample{}, fmt.Errorf("run %d: decoding sample: %w", run, err)
	}
	s.SetupS = float64(s.SetupEndUnixNano-t0.UnixNano()) / 1e9
	s.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
	return s, nil
}

func sameCounts(a, b map[string]float64) bool {
	for _, n := range countNames {
		if a[n] != b[n] {
			return false
		}
	}
	return true
}

func medianEndToEnd(plain []sample) map[string]float64 {
	vals := make([]map[string]float64, len(plain))
	for i, s := range plain {
		vals[i] = s.endToEnd()
	}
	return medians(endToEnd, vals)
}

func medianPerLayer(plain, traced []sample) map[string]float64 {
	vals := make([]map[string]float64, len(traced))
	tracedRun := make([]float64, len(traced))
	for i, s := range traced {
		vals[i] = s.layerMetrics()
		tracedRun[i] = s.RunS
	}
	m := medians(perLayer, vals)
	m["trace.overhead_frac"] = median(tracedRun)/medianEndToEnd(plain)["run_s"] - 1
	return m
}

// writeSpans writes every traced run's spans, kept in memory until now.
func writeSpans(w workload, o options, traced []sample) error {
	var all []span
	for _, s := range traced {
		all = append(all, s.Spans...)
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
	return os.WriteFile(path, b, 0o644)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the result line: the last line of standard output.
func printResult(correct bool, attempted, failed int, specs []metricSpec, values map[string]float64) error {
	metrics := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		metrics[s.name] = metricValue{values[s.name], s.unit}
	}
	return json.NewEncoder(os.Stdout).Encode(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, metrics})
}
