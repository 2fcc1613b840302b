package graph

import (
	"repro/internal/rng"
)

// Grid returns the rows x cols lattice graph with 4-neighbor connectivity.
// Vertex (r, c) has index r*cols + c.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(idx(r, c), idx(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(idx(r, c), idx(r+1, c))
			}
		}
	}
	return b.Build()
}

// Torus returns the rows x cols lattice with wraparound connectivity.
func Torus(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	idx := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(idx(r, c), idx(r, c+1))
			b.AddEdge(idx(r, c), idx(r+1, c))
		}
	}
	return b.Build()
}

// KAugmentedGrid returns the rows x cols grid augmented with an edge between
// every pair of vertices at hop (Manhattan) distance at most k, the family
// from Section 4.1 of the paper ("take a grid of s points and add an edge
// between any pair of points whose hop-distance is not larger than k").
// k = 1 gives the plain grid.
func KAugmentedGrid(rows, cols, k int) *Graph {
	if k < 1 {
		panic("graph: KAugmentedGrid needs k >= 1")
	}
	b := NewBuilder(rows * cols)
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			// Enumerate the half-plane of offsets to avoid double insertion.
			for dr := 0; dr <= k; dr++ {
				for dc := -k; dc <= k; dc++ {
					if dr == 0 && dc <= 0 {
						continue
					}
					if dr+abs(dc) > k {
						continue
					}
					nr, nc := r+dr, c+dc
					if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
						continue
					}
					b.AddEdge(idx(r, c), idx(nr, nc))
				}
			}
		}
	}
	return b.Build()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// KAugmentedTorus returns the rows x cols torus augmented with an edge
// between every pair of vertices at toroidal hop (Manhattan) distance at
// most k. Unlike KAugmentedGrid it is vertex-transitive, hence 1-regular in
// the δ sense — the clean setting for the k-augmentation comparison of
// Section 4.1. k = 1 gives the plain torus.
func KAugmentedTorus(rows, cols, k int) *Graph {
	if k < 1 {
		panic("graph: KAugmentedTorus needs k >= 1")
	}
	b := NewBuilder(rows * cols)
	idx := func(r, c int) int { return ((r%rows)+rows)%rows*cols + ((c%cols)+cols)%cols }
	torDist := func(d, size int) int {
		d = ((d % size) + size) % size
		if d > size/2 {
			d = size - d
		}
		return d
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for dr := -k; dr <= k; dr++ {
				for dc := -k; dc <= k; dc++ {
					if dr == 0 && dc == 0 {
						continue
					}
					if torDist(dr, rows)+torDist(dc, cols) > k {
						continue
					}
					b.AddEdge(idx(r, c), idx(r+dr, c+dc))
				}
			}
		}
	}
	return b.Build()
}

// Path returns the path graph on n vertices.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// Cycle returns the cycle graph on n vertices (n >= 3 for a proper cycle;
// smaller n degenerate to a path or a single vertex).
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	if n >= 3 {
		b.AddEdge(n-1, 0)
	}
	return b.Build()
}

// Complete returns the complete graph on n vertices.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Star returns the star graph: vertex 0 is the hub connected to all others.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// Gnp returns an Erdős–Rényi random graph G(n, p) drawn with r. For small p
// it uses geometric edge skipping so the cost is O(n + m) instead of O(n²).
func Gnp(n int, p float64, r *rng.RNG) *Graph {
	b := NewBuilder(n)
	if p <= 0 {
		return b.Build()
	}
	if p >= 1 {
		return Complete(n)
	}
	// Walk the implicit edge list {(0,1),(0,2),...} skipping geometrically.
	total := int64(n) * int64(n-1) / 2
	gap := rng.NewGeometric(p)
	pos := int64(gap.Draw(r))
	for pos < total {
		u, v := edgeFromRank(pos, n)
		b.AddEdge(u, v)
		pos += 1 + int64(gap.Draw(r))
	}
	return b.Build()
}

// edgeFromRank maps a rank in [0, n(n-1)/2) to the corresponding pair
// (u, v) with u < v, ordering edges as (0,1),(0,2),...,(0,n-1),(1,2),...
func edgeFromRank(rank int64, n int) (int, int) {
	u := 0
	remaining := rank
	for {
		rowLen := int64(n - 1 - u)
		if remaining < rowLen {
			return u, u + 1 + int(remaining)
		}
		remaining -= rowLen
		u++
	}
}
