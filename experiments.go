package cloudskulk

import (
	"cloudskulk/internal/experiments"
	"cloudskulk/internal/runner"
)

// SweepProgress is a live progress snapshot delivered to
// ExperimentOptions.OnProgress while a sweep's cells execute: cells
// done/total, throughput, and the estimated time remaining.
type SweepProgress = runner.Progress

// DetectionResult is one Figs. 5-6 run: verdict plus t0/t1/t2.
type DetectionResult = experiments.DetectionResult

// Figure5DetectionClean regenerates Fig. 5 (no nested VM).
func Figure5DetectionClean(o ExperimentOptions) (DetectionResult, error) {
	return experiments.Figure5DetectionClean(o)
}

// Figure6DetectionInfected regenerates Fig. 6 (rootkit installed).
func Figure6DetectionInfected(o ExperimentOptions) (DetectionResult, error) {
	return experiments.Figure6DetectionInfected(o)
}

// Cloud control-plane load experiment.
type (
	// CloudLoadConfig sizes the control-plane load run (cells, tenants,
	// ops, quotas, queue bounds); zero fields take the defaults.
	CloudLoadConfig = experiments.CloudLoadConfig
	// CloudLoadResult is the aggregated million-op ledger.
	CloudLoadResult = experiments.CloudLoadResult
)

// DefaultCloudLoadConfig is the headline scale: 10,240 tenants issuing
// 1,024,000 operations against 512 hosts across 64 cells.
func DefaultCloudLoadConfig() CloudLoadConfig { return experiments.DefaultCloudLoadConfig() }

// QuickCloudLoadConfig is a sub-second configuration for smoke runs.
func QuickCloudLoadConfig() CloudLoadConfig { return experiments.QuickCloudLoadConfig() }

// CloudLoad drives the configured tenant population through a control
// plane per cell and aggregates the ledgers: latency percentiles,
// throughput, quota/admission reject rates, and placement quality.
func CloudLoad(o ExperimentOptions, cfg CloudLoadConfig) (*CloudLoadResult, error) {
	return experiments.CloudLoad(o, cfg)
}

// Sharded-cloud scale experiment.
type (
	// MegaStormConfig sizes the sharded grid (shards, hosts, guests,
	// golden-image size, churn volume); zero fields take the defaults.
	MegaStormConfig = experiments.MegaStormConfig
	// MegaStormResult is the scale run's deterministic ledger.
	MegaStormResult = experiments.MegaStormResult
)

// DefaultMegaStormConfig is the headline scale: 102,400 guests on 1,024
// hosts across 64 shards, every guest a copy-on-write fork of a 128 MB
// golden image.
func DefaultMegaStormConfig() MegaStormConfig { return experiments.DefaultMegaStormConfig() }

// QuickMegaStormConfig is a sub-second configuration for smoke runs.
func QuickMegaStormConfig() MegaStormConfig { return experiments.QuickMegaStormConfig() }

// MegaStorm provisions the sharded grid through per-shard control
// planes, runs a churn phase of write bursts, kernel tampering, and
// cross-shard delta migrations under conservative synchronization, then
// audits every guest kernel against the golden image. The artefact is
// byte-identical at any worker count.
func MegaStorm(o ExperimentOptions, cfg MegaStormConfig) (*MegaStormResult, error) {
	return experiments.MegaStorm(o, cfg)
}
