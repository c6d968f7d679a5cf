package hypergraph

import (
	"errors"
	"fmt"
)

// Builder accumulates vertices and nets and produces an immutable Hypergraph.
// The zero value is ready to use (with a single weight resource).
type Builder struct {
	numResources int
	weights      [][]int64
	isPad        []bool
	vertNames    []string
	anyVertName  bool

	nets       [][]int32
	netWeights []int64

	// DropSingletons drops nets with fewer than two distinct pins at Build
	// time instead of rejecting them. Such nets cannot be cut and carry no
	// information for partitioning.
	DropSingletons bool
	// DedupPins removes duplicate pins within a net at Build time instead of
	// rejecting them (netlists occasionally connect a net to the same cell
	// more than once).
	DedupPins bool
}

// NewBuilder returns a Builder for hypergraphs with the given number of
// weight resources per vertex (at least 1; resource 0 is cell area).
func NewBuilder(numResources int) *Builder {
	if numResources < 1 {
		numResources = 1
	}
	return &Builder{numResources: numResources, weights: make([][]int64, numResources)}
}

func (b *Builder) resources() int {
	if b.numResources == 0 {
		b.numResources = 1
		b.weights = make([][]int64, 1)
	}
	return b.numResources
}

// AddVertex adds a vertex with the given weights (one per resource; missing
// trailing resources default to 0) and returns its id.
func (b *Builder) AddVertex(weights ...int64) int {
	r := b.resources()
	id := len(b.weights[0])
	for i := 0; i < r; i++ {
		var w int64
		if i < len(weights) {
			w = weights[i]
		}
		b.weights[i] = append(b.weights[i], w)
	}
	b.isPad = append(b.isPad, false)
	b.vertNames = append(b.vertNames, "")
	return id
}

// AddCell adds a named cell vertex with the given weights and returns its id.
func (b *Builder) AddCell(name string, weights ...int64) int {
	id := b.AddVertex(weights...)
	b.vertNames[id] = name
	b.anyVertName = b.anyVertName || name != ""
	return id
}

// AddPad adds a zero-weight I/O pad vertex and returns its id.
func (b *Builder) AddPad(name string) int {
	id := b.AddCell(name)
	b.isPad[id] = true
	return id
}

// SetPad marks vertex v as a pad (or clears the mark).
func (b *Builder) SetPad(v int, pad bool) { b.isPad[v] = pad }

// SetWeight overwrites vertex v's weight in resource r. It allows weights
// that depend on the netlist itself (e.g. pin counts) to be filled in after
// the nets are added.
func (b *Builder) SetWeight(v, r int, w int64) { b.weights[r][v] = w }

// AddNet adds a net of weight 1 connecting the given vertices and returns
// its id. Pins are recorded as given; validation happens at Build time.
func (b *Builder) AddNet(pins ...int) int {
	return b.AddWeightedNet(1, pins...)
}

// AddWeightedNet adds a net with the given weight and pins and returns its id.
func (b *Builder) AddWeightedNet(weight int64, pins ...int) int {
	p := make([]int32, len(pins))
	for i, v := range pins {
		p[i] = int32(v)
	}
	id := len(b.nets)
	b.nets = append(b.nets, p)
	b.netWeights = append(b.netWeights, weight)
	return id
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int {
	if len(b.weights) == 0 {
		return 0
	}
	return len(b.weights[0])
}

// NumNets returns the number of nets added so far.
func (b *Builder) NumNets() int { return len(b.nets) }

// NetPins returns the pins recorded for net e, exactly as added (duplicates
// included; DedupPins only takes effect at Build time). The slice aliases
// builder storage and must not be modified.
func (b *Builder) NetPins(e int) []int32 { return b.nets[e] }

// Build validates the accumulated data and returns the hypergraph.
// It returns an error when a pin references an unknown vertex, a net has a
// duplicate pin (unless DedupPins), a net has fewer than two pins (unless
// DropSingletons), or a weight is negative.
func (b *Builder) Build() (*Hypergraph, error) {
	r := b.resources()
	nv := b.NumVertices()
	for i := 0; i < r; i++ {
		for v, w := range b.weights[i] {
			if w < 0 {
				return nil, fmt.Errorf("hypergraph: vertex %d has negative weight %d in resource %d", v, w, i)
			}
		}
	}

	type netRec struct {
		pins   []int32
		weight int64
	}
	kept := make([]netRec, 0, len(b.nets))
	seen := make([]int32, nv) // seen[v] = net id+1 that last used v
	for e, pins := range b.nets {
		if b.netWeights[e] < 0 {
			return nil, fmt.Errorf("hypergraph: net %d has negative weight %d", e, b.netWeights[e])
		}
		out := pins
		if b.DedupPins {
			out = out[:0:0]
		}
		for _, v := range pins {
			if v < 0 || int(v) >= nv {
				return nil, fmt.Errorf("hypergraph: net %d pin references unknown vertex %d (have %d vertices)", e, v, nv)
			}
			if seen[v] == int32(e)+1 {
				if !b.DedupPins {
					return nil, fmt.Errorf("hypergraph: net %d has duplicate pin on vertex %d", e, v)
				}
				continue
			}
			seen[v] = int32(e) + 1
			if b.DedupPins {
				out = append(out, v)
			}
		}
		if len(out) < 2 {
			if b.DropSingletons {
				continue
			}
			return nil, fmt.Errorf("hypergraph: net %d has %d distinct pins; nets need at least 2 (set DropSingletons to drop)", e, len(out))
		}
		kept = append(kept, netRec{pins: out, weight: b.netWeights[e]})
	}

	h := &Hypergraph{
		numVerts:    nv,
		numNets:     len(kept),
		weights:     make([][]int64, r),
		netWeights:  make([]int64, len(kept)),
		isPad:       append([]bool(nil), b.isPad...),
		totalWeight: make([]int64, r),
	}
	for i := 0; i < r; i++ {
		h.weights[i] = append([]int64(nil), b.weights[i]...)
		for _, w := range h.weights[i] {
			h.totalWeight[i] += w
		}
	}
	if b.anyVertName {
		h.vertNames = append([]string(nil), b.vertNames...)
	}

	// Net -> pin CSR.
	totalPins := 0
	for _, n := range kept {
		totalPins += len(n.pins)
	}
	h.netOffsets = make([]int32, len(kept)+1)
	h.netPins = make([]int32, 0, totalPins)
	for e, n := range kept {
		h.netOffsets[e] = int32(len(h.netPins))
		h.netPins = append(h.netPins, n.pins...)
		h.netWeights[e] = n.weight
	}
	h.netOffsets[len(kept)] = int32(len(h.netPins))

	buildVertexCSR(h, nil)
	return h, nil
}

// buildVertexCSR fills vertOffsets/vertNets from the net->pin CSR, using
// cursor as the fill cursors; it returns the (possibly grown) cursor buffer
// so a caller can keep it for the next build.
func buildVertexCSR(h *Hypergraph, cursor []int32) []int32 {
	h.vertOffsets = make([]int32, h.numVerts+1)
	for _, v := range h.netPins {
		h.vertOffsets[v+1]++
	}
	for v := 0; v < h.numVerts; v++ {
		h.vertOffsets[v+1] += h.vertOffsets[v]
	}
	h.vertNets = make([]int32, len(h.netPins))
	cursor = growInts(cursor, h.numVerts)
	copy(cursor, h.vertOffsets[:h.numVerts])
	for e := 0; e < h.numNets; e++ {
		for _, v := range h.Pins(e) {
			h.vertNets[cursor[v]] = int32(e)
			cursor[v]++
		}
	}
	return cursor
}

// Validate checks internal consistency of the hypergraph (CSR symmetry,
// sorted offsets, weight totals). It is used by tests and by parsers after
// deserialization; a correctly built hypergraph always validates.
func (h *Hypergraph) Validate() error {
	if len(h.netOffsets) != h.numNets+1 || len(h.vertOffsets) != h.numVerts+1 {
		return errors.New("hypergraph: offset array length mismatch")
	}
	if !offsetsNonDecreasing(h.netOffsets) {
		return errors.New("hypergraph: net offsets not nondecreasing")
	}
	if !offsetsNonDecreasing(h.vertOffsets) {
		return errors.New("hypergraph: vertex offsets not nondecreasing")
	}
	if len(h.netPins) != len(h.vertNets) {
		return errors.New("hypergraph: pin count mismatch between CSR directions")
	}
	// Every (net, vertex) incidence must appear exactly once in each CSR.
	type inc struct{ e, v int32 }
	fromNets := make(map[inc]int, len(h.netPins))
	for e := 0; e < h.numNets; e++ {
		for _, v := range h.Pins(e) {
			if v < 0 || int(v) >= h.numVerts {
				return fmt.Errorf("hypergraph: net %d references vertex %d out of range", e, v)
			}
			fromNets[inc{int32(e), v}]++
		}
	}
	for v := 0; v < h.numVerts; v++ {
		for _, e := range h.NetsOf(v) {
			if e < 0 || int(e) >= h.numNets {
				return fmt.Errorf("hypergraph: vertex %d references net %d out of range", v, e)
			}
			fromNets[inc{e, int32(v)}]--
		}
	}
	for k, c := range fromNets {
		if c != 0 {
			return fmt.Errorf("hypergraph: incidence (net %d, vertex %d) asymmetric between CSR directions", k.e, k.v)
		}
	}
	for r := range h.weights {
		var sum int64
		for _, w := range h.weights[r] {
			sum += w
		}
		if sum != h.totalWeight[r] {
			return fmt.Errorf("hypergraph: cached total weight %d != recomputed %d in resource %d", h.totalWeight[r], sum, r)
		}
	}
	return nil
}

func offsetsNonDecreasing(o []int32) bool {
	for i := 1; i < len(o); i++ {
		if o[i] < o[i-1] {
			return false
		}
	}
	return true
}
