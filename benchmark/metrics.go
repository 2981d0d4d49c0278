package main

import (
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units; a self-test keeps
// the two in step.
type metricSpec struct {
	name, unit string
}

// endToEnd are measured with tracing off, one sample per fresh process.
var endToEnd = []metricSpec{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// spanTimes are the layer calls reported as "<span>_s": the summed
// duration of every span of that name in a run (busy time summed over
// cells for spans recorded inside runner.Map).
var spanTimes = []string{
	"shard.new_grid", "shard.provision", "shard.run", "shard.audit",
	"fleet.new", "loadgen.run", "cloudload.account",
	"experiments.new_cloud", "core.install", "detect.run",
	"report.render",
}

// countNames are read from the layers' public accessors; for a given seed
// they repeat exactly, which every run checks.
var countNames = []string{
	"sim.events",
	"shard.guests_deployed", "shard.migrations", "shard.rounds", "shard.delivered",
	"mem.fork_spawns", "migrate.delta_pages",
	"loadgen.ops", "loadgen.reads", "loadgen.mutations",
	"controlplane.jobs_accepted", "controlplane.quota_rejects",
	"controlplane.admission_rejects", "controlplane.jobs_failed", "controlplane.retries",
	"migrate.migrations", "migrate.precopy_rounds", "migrate.pages_sent",
	"ksm.pages_scanned", "ksm.merges", "ksm.checksum_skips",
}

// selfLayers are the layers whose self time the traced run reports;
// "unattributed" is the benchmark's own code between layer calls.
var selfLayers = []string{
	"shard", "sim", "fleet", "controlplane", "runner", "loadgen", "cloudload",
	"experiments", "core", "ksm", "detect", "report", "unattributed",
}

// perLayer is every metric the traced run reports. A layer a workload
// does not exercise reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var m []metricSpec
	for _, n := range countNames {
		m = append(m, metricSpec{n, "count"})
	}
	for _, n := range spanTimes {
		m = append(m, metricSpec{n + "_s", "s"})
	}
	m = append(m,
		metricSpec{"sim.ns_per_event", "ns"},
		metricSpec{"shard.provision_alloc_mb", "MB"},
		metricSpec{"fleet.provision_us_per_guest", "us"},
		metricSpec{"shard.msgs_per_round", "ratio"},
		metricSpec{"migrate.delta_pages_per_migration", "ratio"},
		metricSpec{"loadgen.us_per_op", "us"},
		metricSpec{"controlplane.accept_ratio", "ratio"},
		metricSpec{"ksm.merge_ratio", "ratio"},
		metricSpec{"ksm.ns_per_page", "ns"},
		metricSpec{"runner.idle_frac", "frac"},
	)
	for _, phase := range []string{"", "setup_", "run_"} {
		m = append(m,
			metricSpec{"runtime." + phase + "alloc_mb", "MB"},
			metricSpec{"runtime." + phase + "mallocs", "count"},
			metricSpec{"runtime." + phase + "gc_cpu_s", "s"},
			metricSpec{"runtime." + phase + "gc_cycles", "count"},
		)
	}
	for _, l := range selfLayers {
		m = append(m, metricSpec{"self." + l + "_s", "s"}, metricSpec{"self." + l + "_frac", "frac"})
	}
	return append(m,
		metricSpec{"trace.base_s", "s"},
		metricSpec{"trace.overhead_frac", "frac"},
	)
}

// sample is one run in a fresh process. The child fills the fields it
// can measure; SetupS and CPUS need the parent's clock and the exit
// status.
type sample struct {
	Workers          int                `json:"workers"`
	SetupEndUnixNano int64              `json:"setup_end_unix_ns"`
	RunS             float64            `json:"run_s"`
	PeakRSSMB        float64            `json:"peak_rss_mb"`
	SHA256           string             `json:"sha256"`
	Problems         []string           `json:"problems"`
	Counts           map[string]float64 `json:"counts"`
	Spans            []span             `json:"spans,omitempty"`

	SetupS float64 `json:"-"`
	CPUS   float64 `json:"-"`
}

func (s sample) endToEnd() map[string]float64 {
	return map[string]float64{
		"run_s":       s.RunS,
		"setup_s":     s.SetupS,
		"cpu_s":       s.CPUS,
		"peak_rss_mb": s.PeakRSSMB,
	}
}

// layerMetrics derives every per-layer metric of one traced run except
// trace.overhead_frac, which compares runs.
func (s sample) layerMetrics() map[string]float64 {
	m := make(map[string]float64)
	for _, n := range countNames {
		m[n] = s.Counts[n]
	}
	spanSum := make(map[string]time.Duration)
	phase := make(map[string]rtStat)
	var provisionAlloc uint64
	var fanWall time.Duration
	var fanCPU float64
	for _, sp := range s.Spans {
		spanSum[sp.Name] += sp.dur()
		if sp.RT == nil {
			continue
		}
		switch sp.Name {
		case "bench.setup", "bench.run":
			phase[sp.Name] = *sp.RT
		case "shard.provision":
			provisionAlloc += sp.RT.AllocBytes
		}
		// The calls that fan out across runner.Map's workers.
		if sp.Name == "runner.map" || sp.Name == "shard.provision" || sp.Name == "shard.run" {
			fanWall += sp.dur()
			fanCPU += sp.RT.CPU
		}
	}
	for _, n := range spanTimes {
		m[n+"_s"] = spanSum[n].Seconds()
	}

	runDur := spanSum["bench.run"]
	m["sim.ns_per_event"] = ratio(float64(runDur.Nanoseconds()), m["sim.events"])
	m["shard.provision_alloc_mb"] = float64(provisionAlloc) / (1 << 20)
	m["fleet.provision_us_per_guest"] = ratio(m["shard.provision_s"]*1e6, m["shard.guests_deployed"])
	m["shard.msgs_per_round"] = ratio(m["shard.delivered"], m["shard.rounds"])
	m["migrate.delta_pages_per_migration"] = ratio(m["migrate.delta_pages"], m["shard.migrations"])
	m["loadgen.us_per_op"] = ratio(m["loadgen.run_s"]*1e6, m["loadgen.ops"])
	m["controlplane.accept_ratio"] = ratio(m["controlplane.jobs_accepted"], m["loadgen.mutations"])
	m["ksm.merge_ratio"] = ratio(m["ksm.merges"], m["ksm.pages_scanned"])
	m["ksm.ns_per_page"] = ratio(m["detect.run_s"]*1e9, m["ksm.pages_scanned"])
	if fanWall > 0 {
		m["runner.idle_frac"] = 1 - fanCPU/(float64(s.Workers)*fanWall.Seconds())
	}

	setup, run := phase["bench.setup"], phase["bench.run"]
	for _, p := range []struct {
		prefix string
		st     rtStat
	}{
		{"runtime.", rtStat{setup.AllocBytes + run.AllocBytes, setup.Mallocs + run.Mallocs,
			setup.GCCPU + run.GCCPU, setup.GCCycles + run.GCCycles, 0}},
		{"runtime.setup_", setup},
		{"runtime.run_", run},
	} {
		m[p.prefix+"alloc_mb"] = float64(p.st.AllocBytes) / (1 << 20)
		m[p.prefix+"mallocs"] = float64(p.st.Mallocs)
		m[p.prefix+"gc_cpu_s"] = p.st.GCCPU
		m[p.prefix+"gc_cycles"] = float64(p.st.GCCycles)
	}

	self := selfTimes(s.Spans)
	var base time.Duration
	for _, l := range selfLayers {
		base += self[l]
	}
	for _, l := range selfLayers {
		m["self."+l+"_s"] = self[l].Seconds()
		m["self."+l+"_frac"] = ratio(self[l].Seconds(), base.Seconds())
	}
	m["trace.base_s"] = base.Seconds()
	return m
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medians takes, per metric of specs, the median over the samples'
// values.
func medians(specs []metricSpec, values []map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(specs))
	for _, spec := range specs {
		xs := make([]float64, 0, len(values))
		for _, v := range values {
			xs = append(xs, v[spec.name])
		}
		out[spec.name] = median(xs)
	}
	return out
}
