package experiments_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"cloudskulk/internal/artefacts"
	"cloudskulk/internal/experiments"
	"cloudskulk/internal/hv"
	"cloudskulk/internal/telemetry"
)

// golden pins the SHA-256 of what
//
//	experiments -scale <scale> -seed <seed> -backend <backend> -only <name>
//
// prints as the artefact's body, at every worker count. An empty backend
// is the CLI default (kvm-i7-4790, the paper's testbed, byte-identical to
// the tree before the backend layer existed).
//
// The one row that is not a CLI artefact is telemetryExport: the
// JSON-lines plus Prometheus export of one registry threaded through
// quick fig4 then fleetstorm.
//
// The table is the one place hashes live. Four tests split it: megastorm
// rows, cloudload rows, rows on a non-default backend, and the rest. The
// table sits in the external test package because it renders through
// internal/artefacts, which imports this package.
//
// To pin a new row, leave its hash empty, run
// `go test -run Golden ./internal/experiments` and paste the CAPTURE line
// it fails with.
type golden struct {
	scale, name, backend string
	seed                 int64
	hash                 string
}

const telemetryExport = "telemetry-export"

var goldens = []golden{
	// Captured before the event-pool, dirty-harvest and KSM hot-path
	// optimisations, which had to keep them byte-identical.
	{"quick", "fig5", "", 1, "cfd6a9250ae3552ec6d3f3e59bacab2ba1a87086356d30b59ce26fa35b7299e5"},
	{"quick", "fig6", "", 1, "5edd9fd4428670bd1d605f715ac001f69ab4ba806a5fe786e452a604af1e77df"},
	{"quick", "fig6", "", 7, "4858e5278b275cd2690234c212519ccf0743dcbc4bb2053fafbe10f9066583eb"},
	{"quick", "fig4", "", 1, "d2b4225b19b753010a0c1ac2a9812652f5eeb70b1e4afebde9b4e4fb206f2440"},
	{"quick", "fig4", "", 7, "5df2845f8bdb85a0da01686af9e4b7acf1de510b7b25a3f3fc8944b3503cf45d"},
	// Both seeds render the same quick fleetstorm artefact.
	{"quick", "fleetstorm", "", 1, "56dcdc87852c01407df34f160d15c2af3c8b28bf89210afd1310d2fd64c9bfe4"},
	{"quick", "fleetstorm", "", 7, "56dcdc87852c01407df34f160d15c2af3c8b28bf89210afd1310d2fd64c9bfe4"},
	// The artefact most sensitive to KSM scan-loop changes.
	{"quick", "ablate-ksmwait", "", 1, "fbeb83f862b2225b1acd0b4fc714841e0312d9e1c7c2868f65fef782e9dd5ee0"},
	{"quick", telemetryExport, "", 1, "8a0acfdb12287ff3892d5a6ee8c5033636c44a6c6ce2836f97497e8e76716c88"},
	{"quick", telemetryExport, "", 7, "24520eec7f9675e825f6adb2ad13924331c55c50863c07c2725e5c1d89ac5ee0"},
	// Captured before Tables II-IV shared one lmbench sweep and the
	// level-context sweeps resolved their backend once per entry point.
	{"quick", "fig2", "", 1, "c5bae72e5df614ef3477dc8cec6b7f884f58ca17abe7aada42ad6196854bdd1e"},
	{"quick", "fig2", "", 7, "0e22c998befe761e1e8a60b39210663e93f96caa659393091d948fdad0578c74"},
	{"quick", "fig3", "", 1, "abbf8f168a51d5334eea05297d7e0d5d2883de9019e096f72ee5aff65b4a1260"},
	{"quick", "fig3", "", 7, "e1981f97994c851ee88fdc1f66016570e4318d71eb29014177d75279b18af5c1"},
	{"quick", "table2", "", 1, "49c7fd380ed1295ddb61e83ad144e0e3ca504e25dbb19e9eec10d3ebe7b6c1dd"},
	{"quick", "table2", "", 7, "d585380fa285475c8b41ccd967fd12f4465027a2ac916d696fe3cb601a5c99df"},
	{"quick", "table3", "", 1, "66b2789b99547f905b5aaa897cdb9641738e9f13b1de9810b706d96b7dd1b07f"},
	{"quick", "table3", "", 7, "90d945afd7637f586e98a839054e9abbf618d33efab3be0b5b295d91b441d9d1"},
	{"quick", "table4", "", 1, "aeaaede7912ae811596eadf71bb1d49171f235095b54b088a7164a817841f804"},
	{"quick", "table4", "", 7, "857ba21028c87f47f348c00de6be4e8a65b87b573fb5c1b8c8284c472463d8ed"},
	// ablate-exitmult reads no seed, so a seed-7 row would repeat this one.
	{"quick", "ablate-exitmult", "", 1, "d65e1cea23e159506c2744bb1ac306bfa4048d071a7a594bcd1181112712949b"},

	// Backends move constants, not mechanics. The epyc fig4 rows equal
	// the default's: migration timing is driven by dirty rate and
	// network, and the two profiles share noise and zero-fraction — only
	// exit/KSM economics differ, which fig4 never exercises. Its
	// detection rows diverge, proving the backend is threaded through.
	{"quick", "fig6", "kvm-epyc-7702", 1, "2d6a709f2f7a55c44f314f787ac389c66c171afab76233a7eca54c7fbd501052"},
	{"quick", "fig6", "kvm-epyc-7702", 7, "e4e3c16dc496274316947b4c9f1c1d3c72879e0ff980703fdb5f5202c2af0cee"},
	{"quick", "fig4", "kvm-epyc-7702", 1, "d2b4225b19b753010a0c1ac2a9812652f5eeb70b1e4afebde9b4e4fb206f2440"},
	{"quick", "fig4", "kvm-epyc-7702", 7, "5df2845f8bdb85a0da01686af9e4b7acf1de510b7b25a3f3fc8944b3503cf45d"},
	// xen-haswell's noise and zero-fraction differ from the default's
	// (0.32 vs 0.35, 0.011 vs 0.01), so all four rows diverge.
	{"quick", "fig6", "xen-haswell", 1, "fe8b0b0c71324eaf118d6cb185a3aa56d6ddb4ce57f1f2de03bc905be1a3f6ff"},
	{"quick", "fig6", "xen-haswell", 7, "3fce34f213f5ba38b0a55bf9cb3de1d7f0fd7e2d92c1d15bbe6d342a83366363"},
	{"quick", "fig4", "xen-haswell", 1, "52d0e0d4b45f944cf1d1997f1ce6003838e8a7d1b77a5e382306a4d4657ef38e"},
	{"quick", "fig4", "xen-haswell", 7, "277bc1dbd4b35e23a4f2d24542c7568c0ef7357bd440a1ef0f2599779ac1da38"},
	// whp-skylake's noise (0.013) and zero-fraction (0.37) differ from
	// every other profile, so both migration and detection resample.
	{"quick", "fig6", "whp-skylake", 1, "9c83784d3376963a5c5b37be8bdea03274f15d75fe15290cef9d762b46a49353"},
	{"quick", "fig6", "whp-skylake", 7, "728a74cccb2f87a517d0334aa089711547cf2f6c2aa0a143a31811731b9f605d"},
	{"quick", "fig4", "whp-skylake", 1, "dd0f43abfbcf3ef8ddef1825635d4b9360f9e2628c03c6d841b2b78105898671"},
	{"quick", "fig4", "whp-skylake", 7, "957731a4872faf9e9da5e274fab76538f8cad09956aacb359999a0c0e55539d9"},
	{"quick", "fig6", "hvf-m2", 1, "34392d046bd38ee81cde44da7135fb866b8570785461518ae70ca329da86c2eb"},
	{"quick", "fig6", "hvf-m2", 7, "049c9fc088cd0fd4592292d24ab1f3eab0d687049bcaa05a7c762241041284ad"},
	{"quick", "fig4", "hvf-m2", 1, "e9c88b489a25d842699e264a4cdc6e916ca01df474e2719bee8244b4bac4d6ff"},
	{"quick", "fig4", "hvf-m2", 7, "cdf8a42d8c7d830ea3e42aa2142ebdaa351c436677dbc4d26fa6838812c9f3b7"},

	// Every registered backend × 5 generated strategies × 3 detectors.
	{"quick", "armsrace-matrix", "", 1, "b85dcb0f2f73f815ee3d2ef355f17abddf06df7f2eee7a14bb25db8cf350ebac"},
	{"quick", "armsrace-matrix", "", 7, "b59b7db0d980500fc9bc4af8e4c7e02bc34ff897c85337b009dd453592cb9d54"},

	// The scale runs: 102,400 guests on 1,024 hosts, and 1,024,000
	// control-plane ops from 10,240 tenants.
	{"full", "megastorm", "", 1, "0508d1ebc507eb865e1b31636f17f9a5209fe19f6b1bbd237513d020c8b0761b"},
	{"full", "megastorm", "", 7, "617d17af82ac15b453dd6facd4d2c2981e33d7806e3be2a769d2824295ce4b19"},
	{"full", "cloudload", "", 1, "4b6856e4930c6b0449cd7500bdc72f67fdedf51db3a8dae331361ee08ed9cb30"},
	{"full", "cloudload", "", 7, "34a84ef5ac72941463fb6d65926858b500f249ec7180d44834c6386611a801fe"},
}

// renderGolden renders one row the way cmd/experiments does.
func renderGolden(t *testing.T, g golden, workers int) string {
	t.Helper()
	o := experiments.TestOptions()
	if g.scale == "full" {
		o = experiments.DefaultOptions()
	}
	o.Seed, o.Workers, o.Backend = g.seed, workers, g.backend
	run := func(name string) string {
		res, err := artefacts.Run(name, o, g.scale == "quick")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res.Render()
	}
	if g.name != telemetryExport {
		return run(g.name)
	}
	o.Telemetry = telemetry.NewRegistry()
	run("fig4")
	run("fleetstorm")
	var b bytes.Buffer
	if err := o.Telemetry.WriteJSONLines(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(o.Telemetry.PromText())
	return b.String()
}

// checkGoldens renders every row that keep selects at workers 1 and 8 and
// compares it with its hash. The full-scale rows are skipped under -short.
func checkGoldens(t *testing.T, keep func(golden) bool) {
	n := 0
	for _, g := range goldens {
		if !keep(g) {
			continue
		}
		n++
		backend := g.backend
		if backend == "" {
			backend = "default"
		}
		t.Run(fmt.Sprintf("%s/%s/%s/seed=%d", g.scale, g.name, backend, g.seed), func(t *testing.T) {
			if g.scale == "full" && testing.Short() {
				t.Skip("full-scale row skipped in -short")
			}
			for _, workers := range []int{1, 8} {
				sum := sha256.Sum256([]byte(renderGolden(t, g, workers)))
				h := hex.EncodeToString(sum[:])
				switch {
				case g.hash == "":
					g.hash = h
					t.Errorf("CAPTURE {%q, %q, %q, %d, %q},", g.scale, g.name, g.backend, g.seed, h)
				case h != g.hash:
					t.Errorf("workers=%d hash = %s, want %s", workers, h, g.hash)
				}
			}
		})
	}
	if n == 0 {
		t.Fatal("no golden rows selected")
	}
}

func isScaleRow(g golden) bool { return g.name == "megastorm" || g.name == "cloudload" }

// TestGoldenArtefactHashes: the default-backend rows other than the scale
// runs — detection, migration, fleetstorm, ablate-ksmwait, the telemetry
// export and the arms-race matrix.
func TestGoldenArtefactHashes(t *testing.T) {
	checkGoldens(t, func(g golden) bool { return g.backend == "" && !isScaleRow(g) })
}

// TestBackendGoldenMatrix: the rows on a non-default backend. Every
// registered backend must have its quick fig4 and fig6 rows pinned at
// seeds 1 and 7, so registering a backend forces its own rows.
func TestBackendGoldenMatrix(t *testing.T) {
	for _, backend := range hv.Names() {
		if backend == hv.DefaultName {
			continue
		}
		for _, name := range []string{"fig4", "fig6"} {
			for _, seed := range []int64{1, 7} {
				if !slices.ContainsFunc(goldens, func(g golden) bool {
					return g.scale == "quick" && g.name == name && g.backend == backend && g.seed == seed
				}) {
					t.Errorf("no golden row for quick %s on backend %s at seed %d — add it with an empty hash to capture one",
						name, backend, seed)
				}
			}
		}
	}
	checkGoldens(t, func(g golden) bool { return g.backend != "" })
}

// TestMegaStormGoldenMatrix: the full-scale megastorm rows.
func TestMegaStormGoldenMatrix(t *testing.T) {
	checkGoldens(t, func(g golden) bool { return g.name == "megastorm" })
}

// TestCloudLoadGoldenMatrix: the full-scale cloudload rows.
func TestCloudLoadGoldenMatrix(t *testing.T) {
	checkGoldens(t, func(g golden) bool { return g.name == "cloudload" })
}

// TestSweepsWorkerCountInvariant: rendered experiment output is
// byte-identical whether a sweep runs serially or sharded across eight
// workers — the runner only reschedules cells, it never reseeds them.
// Every golden row already renders at both worker counts; these are the
// sweeps no row pins.
func TestSweepsWorkerCountInvariant(t *testing.T) {
	for _, name := range []string{"armsrace", "ablate-timinggap"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g := golden{scale: "quick", name: name, seed: 1}
			if got1, got8 := renderGolden(t, g, 1), renderGolden(t, g, 8); got1 != got8 {
				t.Fatalf("output depends on worker count:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", got1, got8)
			}
		})
	}
}
