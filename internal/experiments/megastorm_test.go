package experiments

import (
	"strings"
	"testing"
)

// TestMegaStormSmoke: the quick-scale sharded run provisions its full
// population, every deploy and migration arrival forks the golden
// template, the audit is exact, and tampering is caught across shard
// boundaries.
func TestMegaStormSmoke(t *testing.T) {
	o := TestOptions()
	cfg := QuickMegaStormConfig()
	r, err := MegaStorm(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Shards * cfg.HostsPerShard * cfg.GuestsPerHost; r.Deployed != want || r.Guests != want {
		t.Fatalf("population %d deployed / %d after churn, want %d", r.Deployed, r.Guests, want)
	}
	if want := cfg.Shards * cfg.MigrationsPerShard; r.Migrations != want {
		t.Fatalf("migrations = %d, want %d", r.Migrations, want)
	}
	if want := uint64(r.Deployed + r.Migrations); r.ForkSpawns != want {
		t.Fatalf("fork spawns = %d, want %d (every deploy and arrival)", r.ForkSpawns, want)
	}
	if want := cfg.Shards * cfg.TampersPerShard; r.Tampered != want {
		t.Fatalf("tampered = %d, want %d", r.Tampered, want)
	}
	if r.MissedTampers != 0 || r.FalseFlags != 0 {
		t.Fatalf("audit not exact: %d missed, %d false flags", r.MissedTampers, r.FalseFlags)
	}
	if r.Flagged != r.Tampered {
		t.Fatalf("flagged %d != tampered %d", r.Flagged, r.Tampered)
	}
	// Every shard's guest 0 is tampered and then migrates: all of them
	// must be caught on their destination shard.
	if r.MigrantFlags != cfg.Shards {
		t.Fatalf("migrant flags = %d, want %d", r.MigrantFlags, cfg.Shards)
	}
	if r.DeltaPages == 0 || r.Rounds == 0 || r.Delivered < uint64(r.Migrations) {
		t.Fatalf("degenerate churn: %+v", r)
	}
	if !strings.Contains(r.Render(), "flags caught post-migration") {
		t.Fatal("render missing migrant-flag row")
	}
}

// TestMegaStormWorkerInvariance: the quick-scale megastorm artefact is
// byte-identical whether the shards advance serially or on 8 workers.
func TestMegaStormWorkerInvariance(t *testing.T) {
	render := func(workers int) string {
		o := TestOptions()
		o.Workers = workers
		r, err := MegaStorm(o, QuickMegaStormConfig())
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	serial := render(1)
	if wide := render(8); wide != serial {
		t.Errorf("artefact depends on worker count:\n--- serial ---\n%s\n--- wide ---\n%s", serial, wide)
	}
	if again := render(1); again != serial {
		t.Error("same seed replays a different artefact")
	}
	o := TestOptions()
	o.Seed = 99
	r, err := MegaStorm(o, QuickMegaStormConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Render() == serial {
		t.Error("different seeds produce identical artefacts")
	}
}
