package flood_test

// Million-node single-box pin: the sparse edge-MEG at n = 10⁶ must build,
// step, and flood inside a few hundred MB of tracked state — far under the
// 4 GB acceptance budget — because every structure on the hot path is
// rank-indexed (open addressing), arena-backed (CSR adjacency), or
// summary-swept (two-level bitsets). The footprint is asserted through the
// structures' own Bytes() accounting rather than OS RSS so the bound is
// deterministic and portable.

import (
	"testing"

	"repro/internal/flood"
	"repro/internal/model"
	_ "repro/internal/model/all"
)

type bytesReporter interface{ Bytes() int64 }

func TestMillionNodeFloodFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node footprint pin skipped under -short")
	}
	spec, err := model.Parse("edgemeg:n=1000000,p=2e-8,q=0.01,stream=v2")
	if err != nil {
		t.Fatal(err)
	}
	d := model.MustBuild(spec, 1)

	// α = p/(p+q) = 2e-6 over ~5·10¹¹ pairs ⇒ ~10⁶ alive edges (mean
	// degree ≈ 2), with ~2·10⁴ edges churning per step. A 512-step
	// flooding window over the evolving graph reaches the vast majority
	// of nodes even though degree-2 stragglers keep it from completing.
	opts := flood.Opts{MaxSteps: 512, Scratch: flood.NewScratch()}
	res := flood.Run(d, 0, opts)
	if res.Informed < 900_000 {
		t.Fatalf("flood reached %d of 1000000 nodes in %d steps; the sparse MEG should inform the vast majority",
			res.Informed, opts.MaxSteps)
	}

	br, ok := d.(bytesReporter)
	if !ok {
		t.Fatalf("%T does not report Bytes(); the million-node budget cannot be audited", d)
	}
	modelBytes := br.Bytes()
	scratchBytes := opts.Scratch.Bytes()
	total := modelBytes + scratchBytes
	t.Logf("resident: model %d MB + scratch %d MB = %d MB", modelBytes>>20, scratchBytes>>20, total>>20)
	const budget = 4 << 30
	if total >= budget {
		t.Fatalf("resident footprint %d bytes (model %d + scratch %d) exceeds the 4 GB single-box budget",
			total, modelBytes, scratchBytes)
	}

	born, died, _, steps := opts.Scratch.ChurnTotals()
	if steps == 0 || born == 0 || died == 0 {
		t.Fatalf("churn totals born=%d died=%d steps=%d; the delta engine should observe churn every step",
			born, died, steps)
	}
	// O(churn) stepping means per-step churn is ~pairs·2pq/(p+q) ≈ 2·10⁴
	// edges, about 2% of the edge set — the engine never touches the
	// other 98%.
	if perStep := born / steps; perStep < 10_000 || perStep > 40_000 {
		t.Errorf("born per step = %d, want ≈ 2e4 for p=2e-8, q=0.01", perStep)
	}

	// Warm 128-step windows on the same model and scratch take no
	// allocations. The small-n pins of alloc_test.go cannot show this:
	// arena growth and the scratch's high-water marks depend on n. One
	// window warms, and AllocsPerRun adds a warm-up run of its own.
	wopts := flood.Opts{MaxSteps: 128, Scratch: opts.Scratch}
	window := func() { flood.Run(d, 0, wopts) }
	window()
	if allocs := testing.AllocsPerRun(2, window); allocs != 0 {
		t.Errorf("warm 128-step flood window at n = 10⁶: %.1f allocs, want 0", allocs)
	}
}
