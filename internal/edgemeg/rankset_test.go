package edgemeg

// The alive-pair membership set is exercised in both its forms against a
// plain map reference under interleaved add/delete/lookup churn. The
// table's backshift deletion is the one subtle piece (a wrong
// cyclic-interval test silently strands keys mid-chain), so both the fuzz
// harness and the deterministic test compare the full key set, not just
// the operations' return values.

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// rankSetForms builds an empty set of each form over ranks [0, keySpace).
var rankSetForms = []struct {
	name string
	make func(keySpace int64) rankSet
}{
	{"bits", newBitRankSet},
	{"table", func(int64) rankSet { return rankSet{} }},
}

// checkRankSet fails unless set holds exactly the reference key set, each
// key resolving from its home slot.
func checkRankSet(t *testing.T, set *rankSet, ref map[int64]bool) {
	t.Helper()
	if set.Len() != len(ref) {
		t.Fatalf("Len() = %d, want %d", set.Len(), len(ref))
	}
	keys := set.AppendRanks(nil)
	if len(keys) != len(ref) {
		t.Fatalf("AppendRanks returned %d keys, want %d", len(keys), len(ref))
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Fatalf("AppendRanks returned duplicate key %d", keys[i])
		}
	}
	for k := range ref {
		if !set.Has(k) {
			t.Fatalf("final: Has(%d) = false, want true", k)
		}
	}
}

// applyRankOps drives set and ref through the same operation stream and
// fails on any divergence. Keys are folded into a small range so chains
// collide and deletions regularly hit mid-chain entries.
func applyRankOps(t *testing.T, set *rankSet, data []byte, keySpace int64) {
	t.Helper()
	ref := make(map[int64]bool)
	for i := 0; i+1 < len(data); i += 2 {
		op, kb := data[i], data[i+1]
		key := int64(kb) % keySpace
		switch op % 4 {
		case 0, 1: // add (possibly already present)
			set.Add(key)
			ref[key] = true
		case 2: // delete
			if got, want := set.Delete(key), ref[key]; got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, key, got, want)
			}
			delete(ref, key)
		case 3: // lookup
			if got, want := set.Has(key), ref[key]; got != want {
				t.Fatalf("op %d: Has(%d) = %v, want %v", i, key, got, want)
			}
		}
		if set.Len() != len(ref) {
			t.Fatalf("op %d: Len() = %d, want %d", i, set.Len(), len(ref))
		}
	}
	checkRankSet(t, set, ref)
}

func FuzzRankSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 3, 1})
	f.Add([]byte{0, 0, 0, 16, 0, 32, 2, 16, 3, 0, 3, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		const keySpace = 64
		for _, form := range rankSetForms {
			set := form.make(keySpace)
			applyRankOps(t, &set, data, keySpace)
		}
	})
}

// TestRankSetBackshiftChains pins the table's deletion on chains built to
// collide in a 16-slot table: one of keys sharing home slot 7, and one
// that wraps past the last slot (three keys homed at 15, then two homed
// at 0 pushed behind them). Each key is deleted in turn — head, middle or
// tail of its chain — and the whole set checked.
func TestRankSetBackshiftChains(t *testing.T) {
	byHome := map[uint64][]int64{}
	for k := int64(0); len(byHome[7]) < 4 || len(byHome[15]) < 3 || len(byHome[0]) < 2; k++ {
		h := hashRank(k) & 15
		byHome[h] = append(byHome[h], k)
	}
	chains := [][]int64{
		byHome[7][:4],
		append(slices.Clone(byHome[15][:3]), byHome[0][:2]...),
	}
	for _, chain := range chains {
		for _, del := range chain {
			var set rankSet
			ref := map[int64]bool{}
			for _, k := range chain {
				set.Add(k)
				ref[k] = true
			}
			if !set.Delete(del) {
				t.Fatalf("chain %v: Delete(%d) missed a present key", chain, del)
			}
			delete(ref, del)
			checkRankSet(t, &set, ref)
		}
	}
}

// TestRankSetChurn runs a long random add/delete/lookup workload — the
// shape a sparse MEG step produces — on both forms, the table at sizes
// that force several rehashes, against the map reference.
func TestRankSetChurn(t *testing.T) {
	for _, form := range rankSetForms {
		const keySpace = 1 << 22
		r := rng.New(7)
		set := form.make(keySpace)
		ref := make(map[int64]bool)
		live := make([]int64, 0, 4096)
		for step := 0; step < 200_000; step++ {
			switch {
			case len(live) == 0 || r.Float64() < 0.55:
				key := int64(r.Uint64n(keySpace))
				if ref[key] {
					continue
				}
				set.Add(key)
				ref[key] = true
				live = append(live, key)
			default:
				i := r.Intn(len(live))
				key := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if !set.Delete(key) {
					t.Fatalf("%s step %d: Delete(%d) lost a live key", form.name, step, key)
				}
				delete(ref, key)
			}
			if step%1000 == 0 {
				probe := int64(r.Uint64n(keySpace))
				if got, want := set.Has(probe), ref[probe]; got != want {
					t.Fatalf("%s step %d: Has(%d) = %v, want %v", form.name, step, probe, got, want)
				}
			}
		}
		checkRankSet(t, &set, ref)
	}
}

// TestRankSetReserve pins the sizing contract NewSparse relies on: a
// reserved table fills to its reservation without a rehash, and the bit
// form ignores Reserve.
func TestRankSetReserve(t *testing.T) {
	var set rankSet
	set.Reserve(100)
	capBefore := cap(set.keys)
	if capBefore < 100 || capBefore != tableSlots(100) {
		t.Fatalf("Reserve(100) left capacity %d, want %d", capBefore, tableSlots(100))
	}
	for i := int64(0); i < 100; i++ {
		set.Add(i * 3)
	}
	if cap(set.keys) != capBefore {
		t.Fatalf("reserved table rehashed: cap %d -> %d", capBefore, cap(set.keys))
	}
	bits := newBitRankSet(1000)
	bits.Reserve(1 << 20)
	if bits.keys != nil || bits.Bytes() != 16*8 {
		t.Fatalf("bit form grew a table on Reserve: %d bytes", bits.Bytes())
	}
}

// TestSetFormChoice pins which form NewSparse picks for the benchmark's
// models: the dense 512-node sweep and the small farm models take one bit
// per pair, the million-node sparse model the table.
func TestSetFormChoice(t *testing.T) {
	for _, c := range []struct {
		p    Params
		bits bool
	}{
		{Params{N: 512, P: 0.004, Q: 0.096}, true},
		{Params{N: 512, P: 0.04, Q: 0.96}, true},
		{Params{N: 95, P: 0.03, Q: 0.5}, true},
		{Params{N: 2, P: 0, Q: 1}, true},
		{Params{N: 4096, P: 0.0000049, Q: 0.01}, false},
		{Params{N: 1_000_000, P: 2e-8, Q: 0.01}, false},
	} {
		if got := setUsesBits(c.p); got != c.bits {
			t.Errorf("%+v: setUsesBits = %v, want %v", c.p, got, c.bits)
		}
		if c.p.N > 4096 {
			continue
		}
		if s := NewSparse(c.p, InitEmpty, rng.New(1)); (s.alive.bits != nil) != c.bits {
			t.Errorf("%+v: NewSparse built the other form", c.p)
		}
	}
}
