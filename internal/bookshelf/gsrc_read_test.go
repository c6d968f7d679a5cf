package bookshelf

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/hypergraph"
)

// The GSRC reader exists only to check WriteGSRC: no binary reads GSRC, so
// it lives in the package's tests, exported for the external test package.

// GSRCPlacement couples a hypergraph with placed coordinates, as stored in a
// .nodes/.nets/.pl trio. Fixed[v] reports a /FIXED marker in the .pl file
// (pads pinned to the periphery).
type GSRCPlacement struct {
	H     *hypergraph.Hypergraph
	X, Y  []float64
	Fixed []bool
}

// ReadGSRC reads a .nodes/.nets/.pl trio written by WriteGSRC (or any
// bookshelf source using the same subset).
func ReadGSRC(dir, base string) (*GSRCPlacement, error) {
	nodesF, err := os.Open(filepath.Join(dir, base+".nodes"))
	if err != nil {
		return nil, err
	}
	defer nodesF.Close()
	type nodeRec struct {
		name     string
		area     int64
		terminal bool
	}
	var recs []nodeRec
	index := map[string]int{}
	sc := newScanner(nodesF)
	if err := expectHeader(sc, "UCLA nodes"); err != nil {
		return nil, err
	}
	numNodes, numTerms := -1, -1
	for {
		line, ok := sc.next()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "NumNodes":
			numNodes, err = headerCount(sc, fields)
		case fields[0] == "NumTerminals":
			numTerms, err = headerCount(sc, fields)
		default:
			if len(fields) < 3 {
				return nil, sc.errf("malformed node line %q", line)
			}
			wv, err1 := strconv.ParseFloat(fields[1], 64)
			hv, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				return nil, sc.errf("bad node dimensions %q", line)
			}
			rec := nodeRec{name: fields[0], area: int64(math.Round(wv * hv))}
			if len(fields) > 3 && fields[3] == "terminal" {
				rec.terminal = true
			}
			if _, dup := index[rec.name]; dup {
				return nil, sc.errf("duplicate node %q", rec.name)
			}
			index[rec.name] = len(recs)
			recs = append(recs, rec)
		}
		if err != nil {
			return nil, err
		}
	}
	if numNodes >= 0 && numNodes != len(recs) {
		return nil, fmt.Errorf("bookshelf: .nodes declares %d nodes, found %d", numNodes, len(recs))
	}
	terms := 0
	b := hypergraph.NewBuilder(1)
	for _, r := range recs {
		id := b.AddCell(r.name, r.area)
		if r.terminal {
			b.SetPad(id, true)
			terms++
		}
	}
	if numTerms >= 0 && numTerms != terms {
		return nil, fmt.Errorf("bookshelf: .nodes declares %d terminals, found %d", numTerms, terms)
	}

	netsF, err := os.Open(filepath.Join(dir, base+".nets"))
	if err != nil {
		return nil, err
	}
	defer netsF.Close()
	sc = newScanner(netsF)
	if err := expectHeader(sc, "UCLA nets"); err != nil {
		return nil, err
	}
	declaredNets, declaredPins := -1, -1
	var current []int
	remaining := 0
	pins := 0
	flush := func() error {
		if remaining > 0 {
			return fmt.Errorf("bookshelf: net ended with %d pins missing", remaining)
		}
		if len(current) > 0 {
			b.AddNet(current...)
			current = nil
		}
		return nil
	}
	for {
		line, ok := sc.next()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "NumNets":
			declaredNets, err = headerCount(sc, fields)
		case "NumPins":
			declaredPins, err = headerCount(sc, fields)
		case "NetDegree":
			if err := flush(); err != nil {
				return nil, err
			}
			if len(fields) < 3 {
				return nil, sc.errf("malformed NetDegree line %q", line)
			}
			remaining, err = strconv.Atoi(fields[2])
			if err != nil {
				return nil, sc.errf("bad net degree %q", fields[2])
			}
		default:
			v, ok := index[fields[0]]
			if !ok {
				return nil, sc.errf("pin references unknown node %q", fields[0])
			}
			if remaining <= 0 {
				return nil, sc.errf("pin line %q outside a net", line)
			}
			current = append(current, v)
			remaining--
			pins++
		}
		if err != nil {
			return nil, err
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if declaredPins >= 0 && declaredPins != pins {
		return nil, fmt.Errorf("bookshelf: .nets declares %d pins, found %d", declaredPins, pins)
	}
	h, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("bookshelf: %w", err)
	}
	if declaredNets >= 0 && declaredNets != h.NumNets() {
		return nil, fmt.Errorf("bookshelf: .nets declares %d nets, found %d", declaredNets, h.NumNets())
	}

	out := &GSRCPlacement{
		H:     h,
		X:     make([]float64, h.NumVertices()),
		Y:     make([]float64, h.NumVertices()),
		Fixed: make([]bool, h.NumVertices()),
	}
	plF, err := os.Open(filepath.Join(dir, base+".pl"))
	if err != nil {
		return nil, err
	}
	defer plF.Close()
	sc = newScanner(plF)
	if err := expectHeader(sc, "UCLA pl"); err != nil {
		return nil, err
	}
	seen := make([]bool, h.NumVertices())
	for {
		line, ok := sc.next()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, sc.errf("malformed placement line %q", line)
		}
		v, ok := index[fields[0]]
		if !ok {
			return nil, sc.errf("placement references unknown node %q", fields[0])
		}
		xv, err1 := strconv.ParseFloat(fields[1], 64)
		yv, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			return nil, sc.errf("bad coordinates %q", line)
		}
		out.X[v], out.Y[v] = xv, yv
		seen[v] = true
		for _, f := range fields[3:] {
			if f == "/FIXED" {
				out.Fixed[v] = true
			}
		}
	}
	for v, s := range seen {
		if !s {
			return nil, fmt.Errorf("bookshelf: .pl missing node %s", h.VertexName(v))
		}
	}
	return out, nil
}

// expectHeader consumes the "UCLA <kind> 1.0" banner.
func expectHeader(sc *scanner, prefix string) error {
	line, ok := sc.next()
	if !ok || !strings.HasPrefix(line, prefix) {
		return sc.errf("missing %q header (got %q)", prefix, line)
	}
	return nil
}

// headerCount parses "Key : N" lines.
func headerCount(sc *scanner, fields []string) (int, error) {
	if len(fields) != 3 || fields[1] != ":" {
		return 0, sc.errf("malformed header %v", fields)
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil {
		return 0, sc.errf("bad header count %q", fields[2])
	}
	return n, nil
}
