package fm

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/partition"
)

// Level is one level's partition state, built once from an assignment and
// carried through every refinement stage of the level: the synchronous
// rounds (Rounds), localized FM (Localized), the serial FM kernel (Polish)
// and the pairwise sweeps (Pairwise), in any order and any number of times.
// It holds the model (Φ, the part weights, the assignment, movability and
// the lock seeds), the round state with its gain table, and the running
// (λ-1) connectivity. Every stage updates them in place and leaves Φ, the
// weights, the assignment and the running objective exact, so no stage
// rebuilds anything from the assignment. The gain table is handed from one
// stage to the next while it is exact: after the rounds or a localized run
// it holds every movable vertex's row against the current Φ, and the next
// parallel stage or the kernel's first pass reads it instead of re-pricing.
//
// A Level runs on its Scratch and may not be used concurrently or after the
// scratch is reused; the stages' parallel phases fan out internally.
type Level struct {
	m   cutModel
	sc  *Scratch
	obj Objective
	km1 int64
	// table reports that sc.round.gain holds, for every movable vertex, its
	// exact gain row against the current Φ.
	table bool
}

// NewLevel validates p and the feasibility of a, then builds the level state
// of a on sc. cfg.Objective picks the metric Score reports; the stages take
// their own configuration. a is copied, never aliased.
func NewLevel(p *partition.Problem, a partition.Assignment, cfg Config, sc *Scratch) (*Level, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.Feasible(a); err != nil {
		return nil, fmt.Errorf("fm: initial assignment: %w", err)
	}
	l := &Level{sc: sc, obj: cfg.Objective}
	l.km1 = l.m.init(p, a, sc)
	return l, nil
}

// Assignment returns a copy of the level's current assignment.
func (l *Level) Assignment() partition.Assignment { return l.m.a.Clone() }

// KMinus1 returns the running (λ-1) connectivity of the current assignment.
func (l *Level) KMinus1() int64 { return l.km1 }

// Cut returns the weighted net cut of the current assignment, read off Φ (at
// k = 2 it is the running connectivity itself).
func (l *Level) Cut() int64 {
	m := &l.m
	if m.k == 2 {
		return l.km1
	}
	var cut int64
	for en := 0; en < m.h.NumNets(); en++ {
		span := 0
		for _, c := range m.pinCount[en*m.k : (en+1)*m.k] {
			if c > 0 {
				span++
			}
		}
		if span > 1 {
			cut += m.h.NetWeight(en)
		}
	}
	return cut
}

// Score returns the current assignment under the level's objective.
func (l *Level) Score() int64 {
	if l.obj == ObjectiveKM1 {
		return l.km1
	}
	return l.Cut()
}

// buildTable fills the gain table's row of every movable vertex over P vertex
// chunks on W workers, unless it already holds them.
func (l *Level) buildTable(P, W int) {
	if l.table {
		return
	}
	m := &l.m
	k := m.k
	nv := m.h.NumVertices()
	gain := l.sc.round.gain
	par.ForEachWorker(P, W, func(_, c int) {
		lo, hi := refineChunk(nv, P, c)
		for v := lo; v < hi; v++ {
			if m.movable[v] {
				m.gainRow(int32(v), gain[v*k:v*k+k])
			}
		}
	})
	l.table = true
}
