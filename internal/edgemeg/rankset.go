package edgemeg

import "math/bits"

// rankSet is the alive-pair membership set of Sparse: it answers "is this
// pair alive?" and nothing else — no rank maps to a position or a value.
// It takes one of two forms, fixed when it is made (see setUsesBits):
//
//   - one bit per pair (bits != nil), for models where pairs/8 bytes is no
//     more than the table below would take at the stationary alive count;
//   - otherwise an open-addressing hash table of ranks: power-of-two slot
//     count, linear probing, 8 B per slot at <= 3/4 load, and
//     tombstone-free deletion by backward shifting (Knuth 6.4 algorithm
//     R), so the table never degrades under the insert/delete churn of a
//     long simulation and lookups stay O(1 / (1 - load)).
//
// Slots store rank+1 so the zero word means "empty". Ranks are >= 0. A
// warm set adds, deletes and looks up with no heap traffic, which keeps
// the sparse model step alloc-free. The zero rankSet is an empty table.
type rankSet struct {
	bits []uint64 // one bit per pair, rank order; nil selects the table
	keys []int64  // table slots: rank+1; 0 = empty slot
	mask uint64   // len(keys) - 1; len is a power of two
	size int
}

// newBitRankSet returns an empty set in the one-bit-per-pair form over
// ranks [0, pairs).
func newBitRankSet(pairs int64) rankSet {
	return rankSet{bits: make([]uint64, (pairs+63)/64)}
}

// setUsesBits picks the alive set's form for params: one bit per pair
// when those words are no more than the table's one-word slots would be
// at the stationary alive count α·pairs.
func setUsesBits(params Params) bool {
	pairs := pairCount(params.N)
	alive := int(params.Alpha() * float64(pairs))
	return (pairs+63)/64 <= int64(tableSlots(alive))
}

// hashRank scatters a rank over the table (murmur3 finalizer: full
// avalanche, so the low bits taken by the mask are well mixed).
func hashRank(rank int64) uint64 {
	z := uint64(rank)
	z ^= z >> 33
	z *= 0xff51afd7ed558ccd
	z ^= z >> 33
	z *= 0xc4ceb9fe1a85ec53
	z ^= z >> 33
	return z
}

// Len returns the number of stored ranks.
func (s *rankSet) Len() int { return s.size }

// Bytes returns the heap bytes retained by the set.
func (s *rankSet) Bytes() int64 { return int64(cap(s.bits))*8 + int64(cap(s.keys))*8 }

// Has reports whether rank is present.
func (s *rankSet) Has(rank int64) bool {
	if s.bits != nil {
		return s.bits[rank>>6]&(1<<(uint64(rank)&63)) != 0
	}
	if s.size == 0 {
		return false
	}
	k := rank + 1
	for i := hashRank(rank) & s.mask; ; i = (i + 1) & s.mask {
		switch s.keys[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// Add inserts rank; adding a present rank changes nothing.
func (s *rankSet) Add(rank int64) {
	if s.bits != nil {
		w, m := &s.bits[rank>>6], uint64(1)<<(uint64(rank)&63)
		if *w&m == 0 {
			*w |= m
			s.size++
		}
		return
	}
	// Grow at 3/4 load: linear probing stays O(1) expected and the table
	// never fills (the probe loops rely on at least one empty slot).
	if 4*(s.size+1) > 3*len(s.keys) {
		s.grow()
	}
	k := rank + 1
	for i := hashRank(rank) & s.mask; ; i = (i + 1) & s.mask {
		switch s.keys[i] {
		case k:
			return
		case 0:
			s.keys[i] = k
			s.size++
			return
		}
	}
}

// Delete removes rank, reporting whether it was present. In the table the
// probe chain behind the vacated slot is shifted back (no tombstones),
// preserving the invariant that every key is reachable from its home slot
// by a contiguous run of occupied slots.
func (s *rankSet) Delete(rank int64) bool {
	if s.bits != nil {
		w, m := &s.bits[rank>>6], uint64(1)<<(uint64(rank)&63)
		if *w&m == 0 {
			return false
		}
		*w &^= m
		s.size--
		return true
	}
	if s.size == 0 {
		return false
	}
	k := rank + 1
	i := hashRank(rank) & s.mask
	for {
		switch s.keys[i] {
		case k:
			goto found
		case 0:
			return false
		}
		i = (i + 1) & s.mask
	}
found:
	// Backward-shift deletion: walk the chain after i; any entry whose
	// home slot does not lie in the cyclic interval (i, j] would become
	// unreachable with slot i empty, so move it into i and continue from
	// its old slot.
	for {
		s.keys[i] = 0
		j := i
		for {
			j = (j + 1) & s.mask
			kj := s.keys[j]
			if kj == 0 {
				s.size--
				return true
			}
			home := hashRank(kj-1) & s.mask
			// "home in cyclic (i, j]" means the entry is still reachable
			// with i empty; otherwise relocate it into i.
			if cyclicBetween(i, home, j) {
				continue
			}
			s.keys[i] = kj
			i = j
			break
		}
	}
}

// cyclicBetween reports whether home lies in the half-open cyclic
// interval (i, j] of table slots.
func cyclicBetween(i, home, j uint64) bool {
	if i < j {
		return home > i && home <= j
	}
	return home > i || home <= j
}

// Reserve grows the table so that n ranks fit without rehashing. The
// one-bit-per-pair form holds every rank already.
func (s *rankSet) Reserve(n int) {
	if s.bits != nil {
		return
	}
	if need := tableSlots(n); need > len(s.keys) {
		s.rehash(need)
	}
}

// tableSlots is the slot count Reserve gives n ranks.
func tableSlots(n int) int { return nextPow2(n*4/3 + 1) }

// grow doubles the slot count (from a small floor) and rehashes.
func (s *rankSet) grow() {
	n := 2 * len(s.keys)
	if n < 16 {
		n = 16
	}
	s.rehash(n)
}

// rehash re-slots every key into a table of n slots (a power of two).
func (s *rankSet) rehash(n int) {
	old := s.keys
	s.keys = make([]int64, n)
	s.mask = uint64(n - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		for i := hashRank(k-1) & s.mask; ; i = (i + 1) & s.mask {
			if s.keys[i] == 0 {
				s.keys[i] = k
				break
			}
		}
	}
}

// AppendRanks appends every stored rank to dst in unspecified order — the
// test/fuzz iteration hook, not a hot-path call.
func (s *rankSet) AppendRanks(dst []int64) []int64 {
	for w, word := range s.bits {
		for word != 0 {
			dst = append(dst, int64(w)<<6+int64(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	for _, k := range s.keys {
		if k != 0 {
			dst = append(dst, k-1)
		}
	}
	return dst
}

// nextPow2 returns the smallest power of two >= n (and >= 16).
func nextPow2(n int) int {
	if n < 16 {
		return 16
	}
	return 1 << bits.Len(uint(n-1))
}
