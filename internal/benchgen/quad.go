package benchgen

import (
	"repro/internal/geometry"
	"repro/internal/partition"
	"repro/internal/place"
)

// DeriveQuad builds a quadrisection (4-way) benchmark instance from a
// placement block, exercising the remaining features of the paper's proposed
// benchmark type: multiple partition geometries and terminals fixed in more
// than one partition with OR semantics.
//
// Each external vertex propagates a *source region* onto the block
// (geometry.PropagationRegion) and is allowed in every quadrant the
// propagated region touches. The source region is the vertex's exact placed
// location unless it falls inside one of externalRegions — typically the
// sibling blocks of the slicing hierarchy, within which a cell's final
// position is still undecided during top-down placement. A cell floating in
// the sibling half to the left of the block thus propagates to the block's
// left edge strip and may go to either left-side quadrant, exactly the
// paper's OR example.
func DeriveQuad(pl *place.Placement, name string, block geometry.Rect, externalRegions []geometry.Rect, tol float64) (*Instance, error) {
	layout := geometry.QuadrisectionOf(block)
	return derive(pl, name, block, 4, tol, func(v int) (partition.Mask, error) {
		src := geometry.Point(pl.X[v], pl.Y[v])
		for _, er := range externalRegions {
			if er.Contains(pl.X[v], pl.Y[v]) {
				src = er
				break
			}
		}
		return layout.MaskForRegion(geometry.PropagationRegion(block, src))
	})
}
