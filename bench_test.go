package repro_test

// BenchmarkExpE*: one benchmark per experiment of the bench registry
// (`go run ./cmd/benchtab -list` names each one and its claim). Each
// executes the experiment's quick configuration end to end (model
// construction, trials, table rendering to io.Discard), so
// `go test -bench=Exp` regenerates every result series and reports the
// wall-clock cost of doing so. Run `go run ./cmd/benchtab` for the
// human-readable full-scale tables, and benchmark/ for the repeated,
// per-layer performance measurements.

import (
	"io"
	"testing"

	"repro/internal/bench"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := bench.Config{Quick: true, Seed: 1}
	for i := 0; i < b.N; i++ {
		if err := bench.RunOne(id, cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpE1(b *testing.B)  { runExperiment(b, "E1") }  // Theorem 1: flooding vs n on a stationary MEG
func BenchmarkExpE2(b *testing.B)  { runExperiment(b, "E2") }  // edge-MEG p sweep vs the bound of [10]
func BenchmarkExpE3(b *testing.B)  { runExperiment(b, "E3") }  // edge-MEG flooding vs n at fixed (p, q)
func BenchmarkExpE4(b *testing.B)  { runExperiment(b, "E4") }  // random waypoint sparse-regime scaling
func BenchmarkExpE5(b *testing.B)  { runExperiment(b, "E5") }  // waypoint positional density (Corollary 4)
func BenchmarkExpE6(b *testing.B)  { runExperiment(b, "E6") }  // mixing-time curves of the paper's chains
func BenchmarkExpE7(b *testing.B)  { runExperiment(b, "E7") }  // spreading vs saturation phases
func BenchmarkExpE8(b *testing.B)  { runExperiment(b, "E8") }  // density and β-independence conditions
func BenchmarkExpE9(b *testing.B)  { runExperiment(b, "E9") }  // random paths: flooding vs diameter
func BenchmarkExpE10(b *testing.B) { runExperiment(b, "E10") } // δ-regularity ablation
func BenchmarkExpE11(b *testing.B) { runExperiment(b, "E11") } // k-augmented tori vs meeting-time bound
func BenchmarkExpE12(b *testing.B) { runExperiment(b, "E12") } // randomized push gossip (Section 5)
func BenchmarkExpE13(b *testing.B) { runExperiment(b, "E13") } // Theorem 3 η-dependence
func BenchmarkExpE14(b *testing.B) { runExperiment(b, "E14") } // parsimonious flooding [4]
func BenchmarkExpE15(b *testing.B) { runExperiment(b, "E15") } // random walk on a MEG: cover time [2]
func BenchmarkExpE16(b *testing.B) { runExperiment(b, "E16") } // bursty four-state edge-MEG [5]
func BenchmarkExpE17(b *testing.B) { runExperiment(b, "E17") } // load balancing over MEGs [16, 28]
func BenchmarkExpE18(b *testing.B) { runExperiment(b, "E18") } // flooding vs k-push vs pull (§5)
