package protocol_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/dynwalk"
	"repro/internal/flood"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// TestListOrderTrajectoriesPinned pins, by digest over seeds 1–3, the
// fixed-seed runs of every engine that draws a uniform index into a
// neighbor list: pull, push, push–pull and the dynwalk walker. Those draws
// name a neighbor through the list's order, so the digests move if the
// adjacency store leaves its lists in another order — even when every list
// still holds the same set — while the exact-law tests, which only see
// sets, stay green.
//
// The models are named by how their death batches reach
// dyngraph.Adjacency.Apply: the benchmark sweep's two edge-MEGs put at
// least n arcs in every batch (the node-by-node removal path), the third
// edge-MEG ~50 arcs a step against n = 512 (the per-edge path), and the
// waypoint, the benchmark's waypoint parameters at 256 nodes, switches
// between the two from step to step (~1 step in 10 goes node by node).
// "walk" is a dynwalk hitting time from node 0 to node n−1.
func TestListOrderTrajectoriesPinned(t *testing.T) {
	const (
		slow     = "edgemeg:n=512,p=0.004,q=0.096"
		fast     = "edgemeg:n=512,p=0.04,q=0.96"
		sparse   = "edgemeg:n=512,p=0.0002,q=0.005"
		waypoint = "waypoint:n=256,L=16,r=1,vmin=8,vmax=8,pause=32"
	)
	cases := []struct{ model, engine, want string }{
		{slow, "pull", "c4880fd2f1e8e849"},
		{slow, "push:k=2", "7d91506c9a001a27"},
		{slow, "pushpull:k=1", "8dcd3a3cad30e0ff"},
		{slow, "walk", "eaaa5d52f62917aa"},
		{fast, "pull", "ffc9ef5244e7bb2c"},
		{fast, "push:k=2", "4a6f9b0cdf296720"},
		{fast, "pushpull:k=1", "f236d80be4e080f9"},
		{fast, "walk", "d66a25f615d79fd2"},
		{sparse, "pull", "85c18b514c138b86"},
		{sparse, "push:k=2", "1f36d7c389765220"},
		{sparse, "pushpull:k=1", "8898512d9287ff19"},
		{sparse, "walk", "78e82840e13ddcd8"},
		{waypoint, "pull", "336e95048b45ef22"},
		{waypoint, "push:k=2", "7fe4087bd3d7ec22"},
		{waypoint, "pushpull:k=1", "b04703b13a1c1e09"},
		{waypoint, "walk", "1ba1f30ca6dde10f"},
	}
	for _, c := range cases {
		if got := orderDigest(t, c.model, c.engine); got != c.want {
			t.Errorf("%s on %s: digest %s, want %s", c.engine, c.model, got, c.want)
		}
	}
}

// orderDigest hashes one engine's runs on one model over seeds 1–3: each
// Result's Time, HalfTime, Informed, Messages, Useless and Timeline, or
// each walk's hitting time.
func orderDigest(t *testing.T, modelSpec, engine string) string {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	ms, err := model.Parse(modelSpec)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		d, err := model.Build(ms, seed)
		if err != nil {
			t.Fatal(err)
		}
		if engine == "walk" {
			put(int64(dynwalk.HittingTime(d, 0, d.N()-1, 1<<14, rng.New(rng.Seed(seed, 0xF00D)))))
			continue
		}
		ps, err := protocol.Parse(engine)
		if err != nil {
			t.Fatal(err)
		}
		p, err := protocol.Build(ps, rng.Seed(seed, 0xF00D))
		if err != nil {
			t.Fatal(err)
		}
		res := p.Run(d, 0, flood.Opts{MaxSteps: 1 << 12, KeepTimeline: true})
		for _, v := range []int64{int64(res.Time), int64(res.HalfTime), int64(res.Informed), res.Messages, res.Useless, int64(len(res.Timeline))} {
			put(v)
		}
		for _, v := range res.Timeline {
			put(int64(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
