package benchgen_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bookshelf"
	"repro/internal/gen"
	"repro/internal/geometry"
)

// TestDeriveGolden pins every derived instance byte for byte: the bundle
// bookshelf.WriteProblem writes (names, nets, areas, balance, masks), the
// Table IV stats and the CellOf map, for the eight StandardSpecs instances
// of IBM01S at scale 0.05 plus a quadrisection of block B whose sibling is
// the right half of the chip.
func TestDeriveGolden(t *testing.T) {
	want := map[string]uint64{
		"IBM01SA_L0_V":       0xbbefcaa16783ed01,
		"IBM01SA_L0_H":       0xb7d48f58204131bb,
		"IBM01SB_L1_V0_V":    0xaeb720df79812243,
		"IBM01SB_L1_V0_H":    0xc4378b025b835c44,
		"IBM01SC_L1_H0_V":    0x8578c23182134ad0,
		"IBM01SC_L1_H0_H":    0xe3ed1c4ab3a482a2,
		"IBM01SD_L2_V0_H0_V": 0x81459ca1f7499119,
		"IBM01SD_L2_V0_H0_H": 0x688f261dc8c00432,
		"IBM01SB_quad":       0x462723833e8c07e4,
	}
	pr, err := gen.PresetByName("IBM01S")
	if err != nil {
		t.Fatal(err)
	}
	pl, instances, err := benchgen.Suite(pr, 0.05, 1, 1)
	if err != nil {
		t.Fatalf("Suite: %v", err)
	}
	blockB := benchgen.StandardSpecs(pl, pr.Name)[2].Block // left half
	sibling := []geometry.Rect{{X0: pl.Width / 2, Y0: 0, X1: pl.Width * 1.0001, Y1: pl.Height * 1.0001}}
	quad, err := benchgen.DeriveQuad(pl, pr.Name+"B_quad", blockB, sibling, 0.05)
	if err != nil {
		t.Fatalf("DeriveQuad: %v", err)
	}
	instances = append(instances, quad)
	if len(instances) != len(want) {
		t.Errorf("%d instances, want %d", len(instances), len(want))
	}
	dir := t.TempDir()
	for _, inst := range instances {
		if err := bookshelf.WriteProblem(dir, inst.Name, inst.Problem); err != nil {
			t.Fatalf("WriteProblem %s: %v", inst.Name, err)
		}
		f := fnv.New64a()
		for _, ext := range []string{".net", ".are", ".blk", ".fix"} {
			b, err := os.ReadFile(filepath.Join(dir, inst.Name+ext))
			if err != nil {
				t.Fatal(err)
			}
			f.Write(b)
		}
		st := inst.Stats
		fmt.Fprintf(f, "%d %d %d %d %x", st.Cells, st.Nets, st.Pads, st.ExternalNets, math.Float64bits(st.MaxPct))
		binary.Write(f, binary.LittleEndian, inst.CellOf)
		if got := f.Sum64(); got != want[inst.Name] {
			t.Errorf("%s: hash %#x, want %#x (stats %+v)", inst.Name, got, want[inst.Name], st)
		}
	}
}
