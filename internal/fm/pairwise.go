package fm

import "repro/internal/partition"

// Pairwise improves the level's assignment with 2-way FM between part pairs:
// for each pair (x, y) that currently shares a net, the serial kernel runs
// under cfg with every vertex outside the pair held at its part, restricted
// to moves between x and y. Pair moves carry full FM hill-climbing power
// (uphill prefixes with rollback), which single-vertex k-way passes lack, so
// this recovers recursive-bisection-strength refinement inside the direct
// k-way driver. Sweeps repeat (pairs in lexicographic order, so the result is
// deterministic) until a sweep fails to reduce the running connectivity or
// maxSweeps is reached.
//
// Everything a pair needs comes off the level state: the active pairs from
// Φ, the sweep objective from the running connectivity, and each pair's
// movability, target rows and lock seeds from Φ and the pair's vertices
// (setMovable). The level's own movability is restored afterwards.
func (l *Level) Pairwise(cfg Config, maxSweeps int) {
	m := &l.m
	k := m.k
	var active [partition.MaxParts * partition.MaxParts]bool
	prev := l.km1
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// A pair is worth refining only if some net spans both parts.
		clear(active[:k*k])
		for en := 0; en < m.h.NumNets(); en++ {
			var span partition.Mask
			for q, c := range m.pinCount[en*k : en*k+k] {
				if c > 0 {
					span = span.With(q)
				}
			}
			for x := 0; x < k; x++ {
				if !span.Contains(x) {
					continue
				}
				for y := x + 1; y < k; y++ {
					if span.Contains(y) {
						active[x*k+y] = true
					}
				}
			}
		}
		for x := 0; x < k; x++ {
			for y := x + 1; y < k; y++ {
				if active[x*k+y] {
					m.setMovable(partition.Single(x).With(y))
					l.Polish(cfg)
				}
			}
		}
		if l.km1 >= prev {
			break
		}
		prev = l.km1
	}
	m.setMovable(partition.AllParts(k))
}
