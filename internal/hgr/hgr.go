package hgr

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/hypergraph"
)

// Limits bounds what a reader will accept before it starts allocating.
// A zero field selects the package default. The checks run against the
// header's *declared* sizes and against the running pin count, so a hostile
// file is rejected before its claims translate into memory.
type Limits struct {
	// MaxVertices caps the declared vertex count (default 50,000,000).
	MaxVertices int
	// MaxNets caps the declared net count (default 50,000,000).
	MaxNets int
	// MaxPins caps the total number of pins actually parsed
	// (default 500,000,000).
	MaxPins int
}

// Package defaults for Limits' zero fields: sized for the largest public
// benchmark instances with an order of magnitude to spare, small enough that
// a forged header cannot provoke a multi-terabyte allocation.
const (
	DefaultMaxVertices = 50_000_000
	DefaultMaxNets     = 50_000_000
	DefaultMaxPins     = 500_000_000
)

func (l Limits) withDefaults() Limits {
	if l.MaxVertices <= 0 {
		l.MaxVertices = DefaultMaxVertices
	}
	if l.MaxNets <= 0 {
		l.MaxNets = DefaultMaxNets
	}
	if l.MaxPins <= 0 {
		l.MaxPins = DefaultMaxPins
	}
	return l
}

// LimitError reports an input rejected because its size exceeds the
// configured Limits — well-formed but too large, as opposed to malformed.
// Servers map it to 413 rather than 400.
type LimitError struct{ msg string }

func (e *LimitError) Error() string { return e.msg }

func limitErrf(format string, args ...any) error {
	return &LimitError{msg: fmt.Sprintf(format, args...)}
}

// ReadHGRLimits parses an hMetis .hgr hypergraph:
//
//	<numNets> <numVertices> [fmt]
//	<net line: [weight] pin pin ...>     (numNets lines, pins 1-based)
//	<vertex weight>                      (numVertices lines, fmt 10/11 only)
//
// fmt is 0 (unweighted, may be omitted), 1 (net weights lead each net line),
// 10 (vertex weights follow the nets) or 11 (both). '%' starts a comment;
// blank lines are ignored. All weights must be >= 1 (hMetis semantics —
// degenerate zero or negative weights are rejected, not clamped).
//
// Deviations from strictness, both inherited from how public suites actually
// look: duplicate pins within a net are dropped, and single-pin nets (which
// can never be cut) are dropped entirely, shifting the ids of later nets
// down.
//
// Every parse error is line-numbered with a stable message prefix
// (FORMATS.md tabulates the full taxonomy); size rejections are *LimitError.
func ReadHGRLimits(r io.Reader, lim Limits) (*hypergraph.Hypergraph, error) {
	lim = lim.withDefaults()
	lx := newLexer(r, "hgr")

	first, err := lx.next()
	if err == io.EOF {
		return nil, fmt.Errorf("hgr: missing header")
	}
	if err != nil {
		return nil, err
	}
	header := []token{first}
	for {
		t, ok, err := lx.sameLine(first.line)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		header = append(header, t)
	}
	if len(header) < 2 || len(header) > 3 {
		return nil, lx.errf(first.line, "malformed header: want \"nets vertices [fmt]\", got %d fields", len(header))
	}
	numNets, err := parseCount(lx, header[0], "net count")
	if err != nil {
		return nil, err
	}
	numVerts, err := parseCount(lx, header[1], "vertex count")
	if err != nil {
		return nil, err
	}
	netWeighted, vertWeighted := false, false
	if len(header) == 3 {
		switch header[2].text {
		case "0":
		case "1":
			netWeighted = true
		case "10":
			vertWeighted = true
		case "11":
			netWeighted, vertWeighted = true, true
		default:
			return nil, lx.errf(header[2].line, "unsupported fmt code %q (want 0, 1, 10 or 11)", header[2].text)
		}
	}
	if numVerts < 1 {
		return nil, lx.errf(first.line, "malformed header: %d vertices (need at least 1)", numVerts)
	}
	if numVerts > lim.MaxVertices {
		return nil, limitErrf("hgr: header declares %d vertices, limit %d", numVerts, lim.MaxVertices)
	}
	if numNets > lim.MaxNets {
		return nil, limitErrf("hgr: header declares %d nets, limit %d", numNets, lim.MaxNets)
	}

	b := hypergraph.NewBuilder(1)
	b.DedupPins = true
	b.DropSingletons = true
	for v := 0; v < numVerts; v++ {
		b.AddVertex(1)
	}

	pins := make([]int, 0, 16)
	totalPins := 0
	var totalNetWeight int64
	for e := 0; e < numNets; e++ {
		t, err := lx.next()
		if err == io.EOF {
			return nil, fmt.Errorf("hgr: truncated file: %d of %d net lines", e, numNets)
		}
		if err != nil {
			return nil, err
		}
		line := t.line
		weight := int64(1)
		pins = pins[:0]
		if netWeighted {
			weight, err = parseWeight(lx, t, "net weight")
			if err != nil {
				return nil, err
			}
			if totalNetWeight > math.MaxInt64-weight {
				return nil, lx.errf(line, "total net weight overflows int64")
			}
			totalNetWeight += weight
		} else {
			v, err := parsePin(lx, t, numVerts)
			if err != nil {
				return nil, err
			}
			pins = append(pins, v)
		}
		for {
			t, ok, err := lx.sameLine(line)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			v, err := parsePin(lx, t, numVerts)
			if err != nil {
				return nil, err
			}
			if totalPins+len(pins) >= lim.MaxPins {
				return nil, limitErrf("hgr: line %d: pin count exceeds limit %d", line, lim.MaxPins)
			}
			pins = append(pins, v)
		}
		if len(pins) == 0 {
			return nil, lx.errf(line, "net %d has no pins", e)
		}
		totalPins += len(pins)
		b.AddWeightedNet(weight, pins...)
	}

	if vertWeighted {
		var total int64
		prevLine := -1
		for v := 0; v < numVerts; v++ {
			t, err := lx.next()
			if err == io.EOF {
				return nil, fmt.Errorf("hgr: truncated file: %d of %d vertex weight lines", v, numVerts)
			}
			if err != nil {
				return nil, err
			}
			if t.line == prevLine {
				return nil, lx.errf(t.line, "vertex weight line has trailing fields")
			}
			prevLine = t.line
			w, err := parseWeight(lx, t, "vertex weight")
			if err != nil {
				return nil, err
			}
			if total > math.MaxInt64-w {
				return nil, lx.errf(t.line, "total vertex weight overflows int64")
			}
			total += w
			b.SetWeight(v, 0, w)
		}
	}

	if t, err := lx.next(); err == nil {
		return nil, lx.errf(t.line, "unexpected trailing line")
	} else if err != io.EOF {
		return nil, err
	}

	h, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("hgr: %w", err)
	}
	return h, nil
}

// parseCount parses a nonnegative header count.
func parseCount(lx *lexer, t token, what string) (int, error) {
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt32 {
		return 0, lx.errf(t.line, "malformed header: bad %s %q", what, t.text)
	}
	return int(n), nil
}

// parseWeight parses a net or vertex weight, enforcing the hMetis >= 1 rule.
func parseWeight(lx *lexer, t token, what string) (int64, error) {
	w, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, lx.errf(t.line, "bad %s %q", what, t.text)
	}
	if w < 1 {
		return 0, lx.errf(t.line, "bad %s %d (must be >= 1)", what, w)
	}
	return w, nil
}

// parsePin parses a 1-based pin index and returns it 0-based.
func parsePin(lx *lexer, t token, numVerts int) (int, error) {
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, lx.errf(t.line, "bad pin %q", t.text)
	}
	if v < 1 || v > int64(numVerts) {
		return 0, lx.errf(t.line, "pin %d outside [1, %d]", v, numVerts)
	}
	return int(v - 1), nil
}

// WriteHGR writes h as an hMetis .hgr file, choosing the narrowest fmt code
// that represents it: net weights are emitted only when some net weight
// differs from 1, vertex weights only when some vertex weight differs from 1.
//
// .hgr carries strictly less than a Hypergraph: names and pad flags have no
// encoding and are silently dropped. Multi-resource weights and zero-weight
// vertices in a weighted graph cannot be represented at all and are rejected
// (hMetis weights are >= 1), so writers of pad-bearing netlists should
// expect the round trip to lose the pad marks — structure, pins and weights
// survive bit for bit.
func WriteHGR(w io.Writer, h *hypergraph.Hypergraph) error {
	if h.NumResources() != 1 {
		return fmt.Errorf("hgr: cannot write %d-resource hypergraph as .hgr (one weight per vertex)", h.NumResources())
	}
	netWeighted, vertWeighted := false, false
	for e := 0; e < h.NumNets(); e++ {
		if h.NetWeight(e) != 1 {
			netWeighted = true
			break
		}
	}
	for v := 0; v < h.NumVertices(); v++ {
		if h.Weight(v) != 1 {
			vertWeighted = true
			break
		}
	}
	if vertWeighted {
		for v := 0; v < h.NumVertices(); v++ {
			if h.Weight(v) < 1 {
				return fmt.Errorf("hgr: vertex %d has weight %d, not representable in .hgr (weights must be >= 1)", v, h.Weight(v))
			}
		}
	}
	if netWeighted {
		for e := 0; e < h.NumNets(); e++ {
			if h.NetWeight(e) < 1 {
				return fmt.Errorf("hgr: net %d has weight %d, not representable in .hgr (weights must be >= 1)", e, h.NetWeight(e))
			}
		}
	}

	bw := bufio.NewWriter(w)
	switch {
	case netWeighted && vertWeighted:
		fmt.Fprintf(bw, "%d %d 11\n", h.NumNets(), h.NumVertices())
	case vertWeighted:
		fmt.Fprintf(bw, "%d %d 10\n", h.NumNets(), h.NumVertices())
	case netWeighted:
		fmt.Fprintf(bw, "%d %d 1\n", h.NumNets(), h.NumVertices())
	default:
		fmt.Fprintf(bw, "%d %d\n", h.NumNets(), h.NumVertices())
	}
	for e := 0; e < h.NumNets(); e++ {
		if netWeighted {
			fmt.Fprintf(bw, "%d", h.NetWeight(e))
			for _, v := range h.Pins(e) {
				fmt.Fprintf(bw, " %d", v+1)
			}
		} else {
			for i, v := range h.Pins(e) {
				if i > 0 {
					fmt.Fprintf(bw, " %d", v+1)
				} else {
					fmt.Fprintf(bw, "%d", v+1)
				}
			}
		}
		fmt.Fprintln(bw)
	}
	if vertWeighted {
		for v := 0; v < h.NumVertices(); v++ {
			fmt.Fprintf(bw, "%d\n", h.Weight(v))
		}
	}
	return bw.Flush()
}
