package mobility

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// trajectoryDigest hashes everything a consumer of a continuous mobility
// model observes: the seed snapshot from AppendEdges, then for every one of
// steps steps the born and died batches from AppendDeltas (in order) and
// MovedLastStep.
func trajectoryDigest(d dyngraph.Dynamic, steps int) string {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	edges := func(es []dyngraph.Edge) {
		put(len(es))
		for _, e := range es {
			put(int(e.U))
			put(int(e.V))
		}
	}
	edges(d.AppendEdges(nil))
	mr := d.(dyngraph.MoveReporter)
	var born, died []dyngraph.Edge
	for t := 0; t < steps; t++ {
		d.Step()
		born, died = d.AppendDeltas(born[:0], died[:0])
		edges(born)
		edges(died)
		put(mr.MovedLastStep())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestMobilityTrajectoriesPinned pins the fixed-seed trajectories of the
// continuous models — snapshot, churn batches and mover counts over 300
// steps — so a change to how the models are assembled cannot move a draw,
// a position or the order of an edge batch.
func TestMobilityTrajectoriesPinned(t *testing.T) {
	waypoint := func(init WaypointInit, pause int, seed uint64) dyngraph.Dynamic {
		return NewWaypoint(WaypointParams{N: 128, L: 16, R: 1.5, VMin: 0.5, VMax: 1, Pause: pause}, init, rng.New(seed))
	}
	cases := []struct {
		name  string
		model dyngraph.Dynamic
		want  string
	}{
		{"waypoint/steady", waypoint(InitSteadyState, 0, 1), "3fda4d25ff864c08"},
		{"waypoint/uniform", waypoint(InitUniform, 0, 2), "e8cb45b5beca4afd"},
		{"waypoint/steady/pause32", waypoint(InitSteadyState, 32, 3), "2799b63660c93cae"},
		{"waypoint/uniform/pause32", waypoint(InitUniform, 32, 4), "8a4c583c9b3f8744"},
		{"direction", NewDirection(DirectionParams{N: 128, L: 16, R: 1.5, Speed: 0.7, Turn: 0.1}, rng.New(5)), "f3a116069a670cc0"},
		{"region/disk", NewRegionWaypoint(128, DiskRegion{Radius: 8}, 1.5, 0.5, 1, rng.New(6)), "72ba069f95976065"},
		{"region/square", NewRegionWaypoint(128, SquareRegion{L: 16}, 1.5, 0.5, 1, rng.New(7)), "579c581f92d1d22d"},
	}
	for _, c := range cases {
		if got := trajectoryDigest(c.model, 300); got != c.want {
			t.Errorf("%s: trajectory digest %s, want %s", c.name, got, c.want)
		}
	}
}
