package partition

// ConstraintReport quantifies how constrained a fixed-terminals instance is.
// The paper's conclusion asks for a measure that is *invariant* in the right
// way: an instance with any number of fixed terminals is equivalent to one
// with a single merged terminal per part, so counting fixed vertices cannot
// capture constraint strength. The report therefore offers both the naive
// count and measures defined over nets, which survive the terminal-clustering
// reduction unchanged (the property test checks them against it).
type ConstraintReport struct {
	// FixedVertexFraction is the naive measure: fixed vertices over all
	// vertices. NOT invariant under terminal clustering.
	FixedVertexFraction float64
	// ConstrainedNetFraction is the net-weight fraction of nets with at
	// least one fixed pin, taken over the nets that can influence the
	// optimization at all (nets whose pins are all fixed in a single part
	// are constant and excluded). Invariant under terminal clustering.
	ConstrainedNetFraction float64
	// ConflictNetFraction is the net-weight fraction of nets whose fixed
	// pins span two or more parts; such nets are cut in every feasible
	// solution. Invariant under terminal clustering.
	ConflictNetFraction float64
	// TouchedFreeFraction is the fraction of free vertices sharing a net
	// with a fixed terminal — the vertices whose FM gains the terminals
	// bias directly. Invariant under terminal clustering (clustering only
	// merges terminals).
	TouchedFreeFraction float64
	// ForcedCut is the total weight of conflict nets: a lower bound on the
	// cut of any feasible solution.
	ForcedCut int64
}

// Constrainedness computes the constraint-strength report for p.
func Constrainedness(p *Problem) ConstraintReport {
	h := p.H
	nv := h.NumVertices()
	var rep ConstraintReport
	if nv == 0 {
		return rep
	}
	fixedPart := make([]int8, nv)
	nFixed := 0
	for v := 0; v < nv; v++ {
		fixedPart[v] = -1
		if part, ok := p.FixedPart(v); ok {
			fixedPart[v] = int8(part)
			nFixed++
		}
	}
	rep.FixedVertexFraction = float64(nFixed) / float64(nv)

	var totalNetW, constrainedW, conflictW int64
	touched := make([]bool, nv)
	for e := 0; e < h.NumNets(); e++ {
		w := h.NetWeight(e)
		var span Mask
		hasFixed, hasFree := false, false
		for _, v := range h.Pins(e) {
			if fp := fixedPart[v]; fp >= 0 {
				hasFixed = true
				span |= Single(int(fp))
			} else {
				hasFree = true
			}
		}
		if hasFixed && !hasFree && span.Count() == 1 {
			continue // constant net: cut status decided, no influence
		}
		totalNetW += w
		if !hasFixed {
			continue
		}
		constrainedW += w
		for _, v := range h.Pins(e) {
			if fixedPart[v] < 0 {
				touched[v] = true
			}
		}
		if span.Count() >= 2 {
			conflictW += w
		}
	}
	if totalNetW > 0 {
		rep.ConstrainedNetFraction = float64(constrainedW) / float64(totalNetW)
		rep.ConflictNetFraction = float64(conflictW) / float64(totalNetW)
	}
	rep.ForcedCut = conflictW

	nFree := nv - nFixed
	if nFree > 0 {
		nTouched := 0
		for v := 0; v < nv; v++ {
			if touched[v] {
				nTouched++
			}
		}
		rep.TouchedFreeFraction = float64(nTouched) / float64(nFree)
	}
	return rep
}
