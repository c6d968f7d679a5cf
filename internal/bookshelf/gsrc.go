package bookshelf

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/hypergraph"
)

// The GSRC/UCLA bookshelf placement formats (.nodes/.nets/.pl) are the
// format family under which the paper's benchmark suite was published.
// WriteGSRC covers the subset needed for partitioning benchmarks with
// placements: node dimensions (cells carry their area as width x 1;
// terminals are zero-size), net pin lists, and placed locations with /FIXED
// markers for pads.

// WriteGSRC writes base.nodes, base.nets and base.pl into dir. Pad vertices
// must follow all cells (as with WriteNetAre); pads are emitted as
// zero-size terminal nodes with /FIXED placements.
func WriteGSRC(dir, base string, h *hypergraph.Hypergraph, x, y []float64, fixed []bool) error {
	if len(x) != h.NumVertices() || len(y) != h.NumVertices() {
		return fmt.Errorf("bookshelf: coordinate slices cover %d/%d of %d vertices", len(x), len(y), h.NumVertices())
	}
	names, _, err := moduleNames(h)
	if err != nil {
		return err
	}
	nodes, err := os.Create(filepath.Join(dir, base+".nodes"))
	if err != nil {
		return err
	}
	defer nodes.Close()
	w := bufio.NewWriter(nodes)
	fmt.Fprintln(w, "UCLA nodes 1.0")
	fmt.Fprintf(w, "NumNodes : %d\n", h.NumVertices())
	fmt.Fprintf(w, "NumTerminals : %d\n", h.NumPads())
	for v := 0; v < h.NumVertices(); v++ {
		if h.IsPad(v) {
			fmt.Fprintf(w, "\t%s\t0\t0\tterminal\n", names[v])
		} else {
			fmt.Fprintf(w, "\t%s\t%d\t1\n", names[v], h.Weight(v))
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}

	nets, err := os.Create(filepath.Join(dir, base+".nets"))
	if err != nil {
		return err
	}
	defer nets.Close()
	w = bufio.NewWriter(nets)
	fmt.Fprintln(w, "UCLA nets 1.0")
	fmt.Fprintf(w, "NumNets : %d\n", h.NumNets())
	fmt.Fprintf(w, "NumPins : %d\n", h.NumPins())
	for e := 0; e < h.NumNets(); e++ {
		fmt.Fprintf(w, "NetDegree : %d n%d\n", h.NetSize(e), e)
		for _, v := range h.Pins(e) {
			fmt.Fprintf(w, "\t%s B\n", names[v])
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}

	pl, err := os.Create(filepath.Join(dir, base+".pl"))
	if err != nil {
		return err
	}
	defer pl.Close()
	w = bufio.NewWriter(pl)
	fmt.Fprintln(w, "UCLA pl 1.0")
	for v := 0; v < h.NumVertices(); v++ {
		fmt.Fprintf(w, "%s\t%g\t%g : N", names[v], x[v], y[v])
		if fixed != nil && v < len(fixed) && fixed[v] {
			fmt.Fprint(w, " /FIXED")
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}
