package main

import (
	"fmt"
	"sort"
	"time"

	"cloudskulk"
	"cloudskulk/internal/controlplane"
	"cloudskulk/internal/core"
	"cloudskulk/internal/detect"
	"cloudskulk/internal/experiments"
	"cloudskulk/internal/fleet"
	"cloudskulk/internal/loadgen"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/migrate"
	"cloudskulk/internal/shard"
	"cloudskulk/internal/vnet"
)

// params is everything a workload is built from: the seed, the worker
// count, and the scale (quick is the self-tests' scale).
type params struct {
	seed    int64
	workers int
	quick   bool
}

// outcome is one run's rendered artefact, the correctness checks it
// failed, and the layer counts read from the layers' public accessors.
type outcome struct {
	artefact string
	problems []string
	counts   map[string]float64
}

// scenario runs the simulated scenario on a world built by setup, up to
// the rendered and checked artefact.
type scenario func(t *tracer) (outcome, error)

// workload drives one experiment through the same layer entry points, in
// the same order, as the facade call it mirrors; facade renders that
// call's artefact for the byte-identity check.
type workload struct {
	name   string
	setup  func(p params, t *tracer) (scenario, error)
	facade func(p params) (string, error)
}

var workloads = []workload{
	{"megastorm", megastormSetup, megastormFacade},
	{"cloudload", cloudloadSetup, cloudloadFacade},
	{"detect", detectSetup, detectFacade},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func facadeOptions(p params) cloudskulk.ExperimentOptions {
	o := cloudskulk.DefaultExperimentOptions()
	if p.quick {
		o = cloudskulk.QuickExperimentOptions()
	}
	o.Seed = p.seed
	o.Workers = p.workers
	return o
}

// perRunSeed is the experiments package's per-cell seed rule; the
// benchmark derives the same seeds so its artefacts match the facade's.
func perRunSeed(seed int64, cell string, run int) int64 {
	h := int64(1469598103934665603)
	for _, b := range []byte(cell) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return seed*1_000_003 + h%997 + int64(run)*7919
}

func migrationCounts(counts map[string]float64, results []migrate.Result) {
	for _, r := range results {
		counts["migrate.migrations"]++
		counts["migrate.precopy_rounds"] += float64(r.Iterations)
		counts["migrate.pages_sent"] += float64(r.PagesTransferred)
	}
}

func check(problems []string, ok bool, format string, args ...any) []string {
	if !ok {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	return problems
}

// --- megastorm -------------------------------------------------------

// The constants below mirror internal/experiments' megastorm scenario.
var megastormInterShard = vnet.LinkSpec{Bandwidth: 1250 << 20, Latency: 2 * time.Millisecond}

const megastormTenant = "mega"

func megastormConfig(p params) experiments.MegaStormConfig {
	if p.quick {
		return experiments.QuickMegaStormConfig()
	}
	return experiments.DefaultMegaStormConfig()
}

func megastormFacade(p params) (string, error) {
	r, err := cloudskulk.MegaStorm(facadeOptions(p), megastormConfig(p))
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

func megastormSetup(p params, t *tracer) (scenario, error) {
	cfg := megastormConfig(p)
	var g *shard.Grid
	err := t.call("shard.new_grid", func() (err error) {
		g, err = shard.NewGrid(shard.GridConfig{
			Shards:        cfg.Shards,
			HostsPerShard: cfg.HostsPerShard,
			GuestsPerHost: cfg.GuestsPerHost,
			GuestMemMB:    cfg.GuestMemMB,
			Seed:          perRunSeed(p.seed, "megastorm", 0),
			Workers:       p.workers,
			InterShard:    megastormInterShard,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return func(t *tracer) (outcome, error) { return megastormRun(g, cfg, t) }, nil
}

func megastormRun(g *shard.Grid, cfg experiments.MegaStormConfig, t *tracer) (outcome, error) {
	var base time.Duration
	if err := t.call("shard.provision", func() (err error) {
		base, err = g.Provision(megastormTenant)
		return err
	}); err != nil {
		return outcome{}, err
	}

	// Churn, scheduled exactly as experiments.MegaStorm schedules it: the
	// engine RNG draws happen in the same order, so the run is the same.
	expectTampered := make(map[string]bool)
	t.begin("sim.schedule")
	for i := 0; i < g.NumCells(); i++ {
		cell := g.Cell(i)
		eng := cell.Shard.Engine()
		for k := 0; k < cfg.MigrationsPerShard; k++ {
			gname := megastormTenant + "." + shard.GuestVMName(i, k)
			burstAt := base + 2*time.Millisecond + time.Duration(eng.RNG().Intn(20))*time.Millisecond
			eng.ScheduleAt(burstAt, "burst", func() {
				megastormBurst(cell, gname, cfg.BurstPages)
			})
			moveAt := burstAt + 25*time.Millisecond + time.Duration(eng.RNG().Intn(20))*time.Millisecond
			g.ScheduleMigration(i, (i+1)%g.NumCells(), gname, moveAt)
		}
		for j := 0; j < cfg.TampersPerShard; j++ {
			k := cfg.MigrationsPerShard + j - 1
			if j == 0 {
				k = 0
			}
			gname := megastormTenant + "." + shard.GuestVMName(i, k)
			expectTampered[gname] = true
			at := base + 5*time.Millisecond + time.Duration(eng.RNG().Intn(15))*time.Millisecond
			eng.ScheduleAt(at, "tamper", func() {
				megastormTamper(cell, gname)
			})
		}
	}
	t.end()
	end := base + 500*time.Millisecond
	if err := t.call("shard.run", func() error { return g.Run(end) }); err != nil {
		return outcome{}, err
	}
	var flagged []string
	if err := t.call("shard.audit", func() (err error) {
		flagged, err = g.AuditKernels()
		return err
	}); err != nil {
		return outcome{}, err
	}

	st := g.Stats()
	res := &experiments.MegaStormResult{
		Config:           cfg,
		Hosts:            cfg.Shards * cfg.HostsPerShard,
		Guests:           st.Guests,
		Deployed:         st.Deployed,
		ForkSpawns:       st.ForkSpawns,
		GoldenImageHash:  g.Cell(0).Template.ContentHash(),
		Migrations:       st.MigrationsIn,
		DeltaPages:       st.DeltaPages,
		Rounds:           st.Rounds,
		Delivered:        st.Delivered,
		Tampered:         len(expectTampered),
		Flagged:          len(flagged),
		ProvisionVirtSec: base.Seconds(),
		ChurnVirtSec:     (end - base).Seconds(),
	}
	flaggedSet := make(map[string]bool, len(flagged))
	for _, gname := range flagged {
		flaggedSet[gname] = true
		if !expectTampered[gname] {
			res.FalseFlags++
		}
	}
	res.MissedTampers = res.Tampered - (res.Flagged - res.FalseFlags)
	for i := 0; i < g.NumCells(); i++ {
		migrant := megastormTenant + "." + shard.GuestVMName(i, 0)
		if !flaggedSet[migrant] {
			continue
		}
		for _, gname := range g.Cell((i + 1) % g.NumCells()).Fleet.GuestNames() {
			if gname == migrant {
				res.MigrantFlags++
			}
		}
	}
	var out outcome
	t.call("report.render", func() error { out.artefact = res.Render(); return nil })

	p := check(nil, res.MissedTampers == 0, "megastorm: %d missed tampers", res.MissedTampers)
	p = check(p, res.FalseFlags == 0, "megastorm: %d false flags", res.FalseFlags)
	p = check(p, res.Guests == res.Deployed, "megastorm: %d guests after churn, %d deployed", res.Guests, res.Deployed)
	want := cfg.Shards * cfg.MigrationsPerShard
	p = check(p, res.Migrations == want, "megastorm: %d migrations, want %d", res.Migrations, want)
	out.problems = p

	var events uint64
	for i := 0; i < g.NumCells(); i++ {
		events += g.Cell(i).Shard.Engine().Steps()
	}
	out.counts = map[string]float64{
		"sim.events":            float64(events),
		"shard.guests_deployed": float64(st.Deployed),
		"shard.migrations":      float64(st.MigrationsIn),
		"shard.rounds":          float64(st.Rounds),
		"shard.delivered":       float64(st.Delivered),
		"mem.fork_spawns":       float64(st.ForkSpawns),
		"migrate.delta_pages":   float64(st.DeltaPages),
	}
	return out, nil
}

// megastormBurst dirties the guest's user region, as the experiment does.
func megastormBurst(cell *shard.Cell, gname string, pages int) {
	info, err := cell.Fleet.Lookup(gname)
	if err != nil {
		return // already migrated away under an unlucky jitter draw
	}
	ram := info.Outer.RAM()
	start := ram.NumPages() / 2
	for p := start; p < start+pages && p < ram.NumPages(); p++ {
		ram.Write(p, 0xBEEF000000000000|mem.Content(p)) //nolint:errcheck
	}
}

// megastormTamper flips one kernel-region page, as the experiment does.
func megastormTamper(cell *shard.Cell, gname string) {
	info, err := cell.Fleet.Lookup(gname)
	if err != nil {
		return
	}
	info.Outer.RAM().Write(5, 0xDEAD) //nolint:errcheck
}

// --- cloudload -------------------------------------------------------

func cloudloadConfig(p params) experiments.CloudLoadConfig {
	if p.quick {
		return experiments.QuickCloudLoadConfig()
	}
	return experiments.DefaultCloudLoadConfig()
}

func cloudloadFacade(p params) (string, error) {
	r, err := cloudskulk.CloudLoad(facadeOptions(p), cloudloadConfig(p))
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// loadCell is one cloudload cell's world: built in set-up, loaded in the
// run.
type loadCell struct {
	fl       *fleet.Fleet
	plane    *controlplane.Plane
	loadSeed int64
}

// loadCellOut is one cell's raw outcome, as experiments.CloudLoad keeps
// it, plus the cell's layer counts.
type loadCellOut struct {
	stats    loadgen.Stats
	latUS    []int64
	vms      int
	spreadMB int64
	usedMB   int64
	events   uint64
	migs     []migrate.Result
}

func cloudloadSetup(p params, t *tracer) (scenario, error) {
	cfg := cloudloadConfig(p)
	cells, err := fanOut(t, cfg.Cells, p.workers, func(i int, t *tracer) (loadCell, error) {
		label := fmt.Sprintf("cloudload/cell%03d", i)
		specs := make([]fleet.HostSpec, cfg.HostsPerCell)
		for j := range specs {
			specs[j] = fleet.HostSpec{Name: fmt.Sprintf("h%02d", j), MemMB: cfg.HostMemMB}
		}
		c := loadCell{loadSeed: perRunSeed(p.seed, label+"/load", 0)}
		err := t.call("fleet.new", func() (err error) {
			c.fl, err = fleet.New(perRunSeed(p.seed, label, 0),
				fleet.WithHostSpecs(specs...),
				fleet.WithRetry(3, 250*time.Millisecond),
				fleet.WithBackend(""),
			)
			return err
		})
		if err != nil {
			return c, err
		}
		t.call("controlplane.new", func() error {
			c.plane = controlplane.New(c.fl, controlplane.Config{MaxQueue: cfg.MaxQueue, Slots: cfg.Slots})
			return nil
		})
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return func(t *tracer) (outcome, error) { return cloudloadRun(cells, cfg, p.workers, t) }, nil
}

func cloudloadRun(cells []loadCell, cfg experiments.CloudLoadConfig, workers int, t *tracer) (outcome, error) {
	outs, err := fanOut(t, len(cells), workers, func(i int, t *tracer) (loadCellOut, error) {
		c := cells[i]
		var o loadCellOut
		err := t.call("loadgen.run", func() (err error) {
			o.stats, err = loadgen.Run(c.plane, loadgen.Options{
				Tenants: cfg.TenantsPerCell,
				Ops:     cfg.OpsPerCell,
				Seed:    c.loadSeed,
				Mix:     cfg.Mix,
				MeanGap: cfg.MeanGap,
				Flavors: cfg.Flavors,
				Quota:   cfg.Quota,
			})
			return err
		})
		if err != nil {
			return o, err
		}
		t.call("cloudload.account", func() error {
			o.vms = len(c.fl.GuestNames())
			for _, j := range c.plane.Jobs() {
				if j.State == controlplane.JobSucceeded || j.State == controlplane.JobFailed {
					o.latUS = append(o.latUS, int64(j.Latency()/time.Microsecond))
				}
			}
			minFree, maxFree := int64(-1), int64(-1)
			for _, h := range c.fl.HostNames() {
				free := c.fl.FreeMemMB(h)
				if minFree < 0 || free < minFree {
					minFree = free
				}
				if free > maxFree {
					maxFree = free
				}
				o.usedMB += cfg.HostMemMB - free
			}
			o.spreadMB = maxFree - minFree
			return nil
		})
		o.events = c.fl.Engine().Steps()
		o.migs = c.fl.Migration().Results()
		// Release the cell's world, as experiments.CloudLoad does when a
		// cell returns: peak memory must not grow with the cell count.
		cells[i] = loadCell{}
		return o, nil
	})
	if err != nil {
		return outcome{}, err
	}

	res := &experiments.CloudLoadResult{Config: cfg}
	t.call("cloudload.account", func() error {
		var latencies []int64
		var totalVirtual time.Duration
		var totalSpread, totalUsed, capacity int64
		for _, c := range outs {
			s := c.stats
			res.Issued += s.Issued
			res.Mutations += s.Mutations
			res.Reads += s.Reads
			res.Accepted += s.Accepted
			res.QuotaRejects += s.QuotaRejects
			res.AdmissionRejects += s.AdmissionRejects
			res.OtherRejects += s.OtherRejects
			res.Succeeded += s.Succeeded
			res.Failed += s.Failed
			res.Retries += s.Retries
			res.SurvivingVMs += c.vms
			latencies = append(latencies, c.latUS...)
			totalVirtual += s.VirtualTime
			totalSpread += c.spreadMB
			totalUsed += c.usedMB
			capacity += int64(cfg.HostsPerCell) * cfg.HostMemMB
		}
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		res.P50us = percentile(latencies, 50)
		res.P99us = percentile(latencies, 99)
		if totalVirtual > 0 {
			res.ThroughputPerMin = float64(res.Succeeded+res.Failed) /
				(float64(totalVirtual) / float64(time.Minute))
		}
		res.MeanSpreadMB = totalSpread / int64(cfg.Cells)
		if capacity > 0 {
			res.UtilizationPct = totalUsed * 100 / capacity
		}
		return nil
	})
	var out outcome
	t.call("report.render", func() error { out.artefact = res.Render(); return nil })

	p := check(nil, res.Issued == res.Reads+res.Mutations,
		"cloudload: issued %d != reads %d + mutations %d", res.Issued, res.Reads, res.Mutations)
	rejects := res.Accepted + res.QuotaRejects + res.AdmissionRejects + res.OtherRejects
	p = check(p, res.Mutations == rejects,
		"cloudload: mutations %d != accepted + quota + admission + other rejects %d", res.Mutations, rejects)
	out.problems = p

	out.counts = map[string]float64{
		"loadgen.ops":                    float64(res.Issued),
		"loadgen.reads":                  float64(res.Reads),
		"loadgen.mutations":              float64(res.Mutations),
		"controlplane.jobs_accepted":     float64(res.Accepted),
		"controlplane.quota_rejects":     float64(res.QuotaRejects),
		"controlplane.admission_rejects": float64(res.AdmissionRejects),
		"controlplane.jobs_failed":       float64(res.Failed),
		"controlplane.retries":           float64(res.Retries),
	}
	for _, c := range outs {
		out.counts["sim.events"] += float64(c.events)
		migrationCounts(out.counts, c.migs)
	}
	return out, nil
}

// percentile is experiments.CloudLoad's nearest-rank pick.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)-1)*p/100]
}

// --- detect ----------------------------------------------------------

// Probe-file placements, as internal/experiments places them.
const (
	agentPageOffset  = 2048
	mirrorPageOffset = core.KernelPages + 4096
)

func detectFacade(p params) (string, error) {
	o := facadeOptions(p)
	r5, err := cloudskulk.Figure5DetectionClean(o)
	if err != nil {
		return "", err
	}
	r6, err := cloudskulk.Figure6DetectionInfected(o)
	if err != nil {
		return "", err
	}
	return r5.Render() + r6.Render(), nil
}

func detectSetup(p params, t *tracer) (scenario, error) {
	o := facadeOptions(p)
	var clean, infected *experiments.Cloud
	err := t.call("experiments.new_cloud", func() (err error) {
		clean, err = experiments.NewCloud(o.Seed, experiments.WithGuestMemMB(o.GuestMemMB),
			experiments.WithKSMStarted(), experiments.WithTelemetry(nil), experiments.WithBackend(""))
		return err
	})
	if err != nil {
		return nil, err
	}
	err = t.call("experiments.new_cloud", func() (err error) {
		infected, err = experiments.NewCloud(o.Seed, experiments.WithGuestMemMB(o.GuestMemMB),
			experiments.WithTelemetry(nil), experiments.WithBackend(""))
		return err
	})
	if err != nil {
		return nil, err
	}
	return func(t *tracer) (outcome, error) { return detectRun(clean, infected, o, t) }, nil
}

func detectRun(clean, infected *experiments.Cloud, o cloudskulk.ExperimentOptions, t *tracer) (outcome, error) {
	dedupRun := func(c *experiments.Cloud, agent *detect.GuestAgent) (v detect.Verdict, ev detect.Evidence, err error) {
		d := detect.NewDedupDetector(c.Host)
		d.Pages = o.DetectPages
		d.Wait = o.KSMWait
		err = t.call("detect.run", func() (err error) {
			v, ev, err = d.Run(agent)
			return err
		})
		return v, ev, err
	}

	// Fig. 5: no nested VM.
	v5, ev5, err := dedupRun(clean, detect.NewGuestAgent(clean.Victim, agentPageOffset))
	if err != nil {
		return outcome{}, err
	}
	r5 := experiments.DetectionResult{Scenario: "no nested VM", Verdict: v5, Evidence: ev5}

	// Fig. 6: CloudSkulk installed.
	var rk *core.Rootkit
	if err := t.call("core.install", func() (err error) {
		rk, err = infected.InstallRootkit(core.InstallConfig{})
		return err
	}); err != nil {
		return outcome{}, err
	}
	t.call("ksm.start", func() error { infected.Host.KSM().Start(); return nil })
	agent := detect.NewGuestAgent(rk.Victim, agentPageOffset)
	agent.OnLoad = rk.InterceptFilePushes(mirrorPageOffset)
	v6, ev6, err := dedupRun(infected, agent)
	if err != nil {
		return outcome{}, err
	}
	r6 := experiments.DetectionResult{Scenario: "with nested VM (CloudSkulk)", Verdict: v6, Evidence: ev6}

	var out outcome
	t.call("report.render", func() error { out.artefact = r5.Render() + r6.Render(); return nil })
	p := check(nil, v5 == detect.VerdictClean, "detect: Fig. 5 verdict %q, want clean", v5)
	p = check(p, v6 == detect.VerdictNested, "detect: Fig. 6 verdict %q, want nested", v6)
	out.problems = p

	out.counts = map[string]float64{}
	for _, c := range []*experiments.Cloud{clean, infected} {
		k := c.Host.KSM()
		out.counts["sim.events"] += float64(c.Eng.Steps())
		out.counts["ksm.pages_scanned"] += float64(k.PagesScanned())
		out.counts["ksm.merges"] += float64(k.Merges())
		out.counts["ksm.checksum_skips"] += float64(k.ChecksumSkips())
		migrationCounts(out.counts, c.Migration.Results())
	}
	return out, nil
}
