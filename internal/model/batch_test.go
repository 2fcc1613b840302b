package model_test

import (
	"sort"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/model"
	_ "repro/internal/model/all"
)

// fastSpecs gives every registered model a small configuration so the
// cross-model equivalence tests stay quick. A registered model missing
// here is still tested, with its default parameters.
var fastSpecs = map[string]model.Spec{
	"edgemeg":   model.New("edgemeg").WithInt("n", 64).WithFloat("p", 0.05).WithFloat("q", 0.3),
	"edgemeg4":  model.New("edgemeg4").WithInt("n", 48),
	"waypoint":  model.New("waypoint").WithInt("n", 80).WithFloat("L", 10).WithFloat("r", 1.5),
	"direction": model.New("direction").WithInt("n", 80).WithFloat("L", 10).WithFloat("r", 1.5),
	"walk":      model.New("walk").WithInt("n", 40).WithInt("m", 8),
	"dwaypoint": model.New("dwaypoint").WithInt("n", 20).WithInt("m", 4),
	"paths":     model.New("paths").WithInt("n", 20).WithInt("m", 6),
	"static":    model.New("static").With("topology", "gnp").WithInt("n", 60).WithFloat("p", 0.1),
}

func specFor(name string) model.Spec {
	if spec, ok := fastSpecs[name]; ok {
		return spec
	}
	return model.New(name)
}

func edgeSet(d dyngraph.Dynamic) []dyngraph.Edge {
	edges := dyngraph.AppendEdges(d, nil)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return edges
}

// TestBatchWellFormed checks, for every registered model, that the
// snapshot batch obeys the Dynamic contract — every edge once, normalized
// to U < V — and describes the same graph as Snapshot, across several
// steps.
func TestBatchWellFormed(t *testing.T) {
	for _, name := range model.Names() {
		t.Run(name, func(t *testing.T) {
			spec := specFor(name)
			d := model.MustBuild(spec, 11)
			for step := 0; step < 4; step++ {
				native := edgeSet(d)
				for i, e := range native {
					if e.U >= e.V {
						t.Fatalf("step %d: edge %d = (%d,%d) not normalized U < V", step, i, e.U, e.V)
					}
					if i > 0 && native[i-1] == e {
						t.Fatalf("step %d: duplicate edge (%d,%d)", step, e.U, e.V)
					}
				}
				snap := dyngraph.Snapshot(d)
				if snap.M() != len(native) {
					t.Fatalf("step %d: Snapshot has %d edges, batch %d", step, snap.M(), len(native))
				}
				for _, e := range native {
					if !snap.HasEdge(int(e.U), int(e.V)) {
						t.Fatalf("step %d: edge (%d,%d) missing from Snapshot", step, e.U, e.V)
					}
				}
				d.Step()
			}
		})
	}
}
