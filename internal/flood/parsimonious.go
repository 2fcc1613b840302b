package flood

import (
	"repro/internal/dyngraph"
)

// Parsimonious runs the parsimonious flooding protocol of Baumann,
// Crescenzi and Fraigniaud [4] (cited in the paper's protocol family): a
// node forwards the information only during the first `active` steps after
// becoming informed, then falls silent — informed forever, but no longer
// transmitting. Plain flooding is the limit active → ∞.
//
// Parsimonious flooding trades completion time (and possibly completion
// itself) for a bounded per-node transmission budget: in a dynamic graph a
// silent informed node may be the only one ever to meet some isolated node,
// so too-small activity windows can strand nodes. The returned Result
// reports Completed accordingly.
func Parsimonious(d dyngraph.Dynamic, source, active int, opts Opts) Result {
	if active <= 0 {
		panic("flood: Parsimonious needs active > 0")
	}
	sc, res, done := start(d, source, opts)
	if done {
		return res
	}
	adj := &sc.tr.Adj
	n := sc.informed.Len()
	informed := sc.informed

	// expiry[i] is the last step at which node i still transmits; every
	// entry read below is assigned first, so the buffer needs no clearing.
	expiry := sc.expirySlice(n)
	// activeList holds nodes still within their transmission window.
	activeList := append(sc.queue[:0], int32(source))
	expiry[source] = int32(active - 1)

	// newly is duplicate-free, so incremental size tracking is exact —
	// cheaper than a per-step popcount in the one engine that can run for
	// thousands of near-idle steps (small windows strand progress).
	size := 1
	maxSteps := opts.maxSteps()
	for t := 0; t < maxSteps; t++ {
		newly := sc.newly[:0]
		// Only active nodes transmit on snapshot E_t — that restriction is
		// the whole point of the protocol, and the message count shows it:
		// one transmission per (transmitter, neighbor), so silent informed
		// nodes cost nothing where plain flooding keeps paying degree.
		// Marking informed immediately is safe — activeList is fixed for
		// the round, so a node informed mid-round cannot transmit until the
		// next one — and keeps newly duplicate-free.
		var msgs int64
		for _, i := range activeList {
			nbrs := adj.Neighbors(int(i))
			msgs += int64(len(nbrs))
			for _, j := range nbrs {
				if !informed.Get(int(j)) {
					informed.Set(int(j))
					newly = append(newly, j)
				}
			}
		}
		// Expire nodes whose window ended at step t, then add the newly
		// informed with fresh windows.
		keep := activeList[:0]
		for _, i := range activeList {
			if int(expiry[i]) > t {
				keep = append(keep, i)
			}
		}
		activeList = keep
		for _, j := range newly {
			expiry[j] = int32(t + active)
			activeList = append(activeList, j)
		}
		// Store the (possibly re-grown) buffers back for reuse by the next
		// run sharing this scratch.
		sc.newly, sc.queue = newly[:0], activeList
		size += len(newly)
		if record(&res, opts, n, size, t, msgs) {
			return res
		}
		// All transmitters silent and nobody newly informed: the process
		// is dead — no future step can inform anyone.
		if len(activeList) == 0 {
			return res
		}
		sc.tr.Step()
	}
	return res
}
