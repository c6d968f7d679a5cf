package hgr

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/hypergraph"
)

// The same four-net, seven-vertex instance in all four fmt codes. Pins are
// written 1-based in the files and checked 0-based here.
const (
	hgrFmt0  = "4 7\n1 2\n1 7 5 6\n5 6 4\n2 3 4\n"
	hgrFmt1  = "4 7 1\n2 1 2\n3 1 7 5 6\n8 5 6 4\n7 2 3 4\n"
	hgrFmt10 = "4 7 10\n1 2\n1 7 5 6\n5 6 4\n2 3 4\n" +
		"5\n1\n8\n7\n3\n9\n3\n"
	hgrFmt11 = "4 7 11\n2 1 2\n3 1 7 5 6\n8 5 6 4\n7 2 3 4\n" +
		"5\n1\n8\n7\n3\n9\n3\n"
)

var (
	goldenPins       = [][]int{{0, 1}, {0, 6, 4, 5}, {4, 5, 3}, {1, 2, 3}}
	goldenNetWeights = []int64{2, 3, 8, 7}
	goldenVertWts    = []int64{5, 1, 8, 7, 3, 9, 3}
)

func TestReadHGRGolden(t *testing.T) {
	cases := []struct {
		name         string
		in           string
		netWeighted  bool
		vertWeighted bool
	}{
		{"fmt0", hgrFmt0, false, false},
		{"fmt1", hgrFmt1, true, false},
		{"fmt10", hgrFmt10, false, true},
		{"fmt11", hgrFmt11, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := ReadHGR(strings.NewReader(tc.in))
			if err != nil {
				t.Fatalf("ReadHGR: %v", err)
			}
			if h.NumVertices() != 7 || h.NumNets() != 4 {
				t.Fatalf("got %d vertices, %d nets; want 7, 4", h.NumVertices(), h.NumNets())
			}
			for e, want := range goldenPins {
				got := h.Pins(e)
				if len(got) != len(want) {
					t.Fatalf("net %d: pins %v, want %v", e, got, want)
				}
				for i, v := range want {
					if int(got[i]) != v {
						t.Fatalf("net %d: pins %v, want %v", e, got, want)
					}
				}
				ew := int64(1)
				if tc.netWeighted {
					ew = goldenNetWeights[e]
				}
				if h.NetWeight(e) != ew {
					t.Fatalf("net %d weight = %d, want %d", e, h.NetWeight(e), ew)
				}
			}
			for v := 0; v < 7; v++ {
				vw := int64(1)
				if tc.vertWeighted {
					vw = goldenVertWts[v]
				}
				if h.Weight(v) != vw {
					t.Fatalf("vertex %d weight = %d, want %d", v, h.Weight(v), vw)
				}
			}
		})
	}
}

// A fmt code may be omitted entirely (equivalent to 0), comments and blank
// lines are ignored, and duplicate pins / single-pin nets are dropped rather
// than rejected — all three occur in public benchmark suites.
func TestReadHGRLenient(t *testing.T) {
	in := "% comment header\n3 4 % trailing comment\n\n1 2 1\n\n% mid comment\n3 3\n2 4\n"
	h, err := ReadHGR(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadHGR: %v", err)
	}
	// Net 0 had a duplicate pin (1 2 1 -> {0,1}); net 1 was a singleton
	// (3 3 -> {2}) and is dropped; net 2 survives as net 1.
	if h.NumNets() != 2 {
		t.Fatalf("got %d nets, want 2 (singleton dropped)", h.NumNets())
	}
	if got := h.Pins(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("net 0 pins = %v, want [0 1]", got)
	}
	if got := h.Pins(1); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("net 1 pins = %v, want [1 3]", got)
	}
}

func TestWriteHGRRoundTrip(t *testing.T) {
	for _, in := range []string{hgrFmt0, hgrFmt1, hgrFmt10, hgrFmt11} {
		h, err := ReadHGR(strings.NewReader(in))
		if err != nil {
			t.Fatalf("ReadHGR: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteHGR(&buf, h); err != nil {
			t.Fatalf("WriteHGR: %v", err)
		}
		h2, err := ReadHGR(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read written file: %v\n%s", err, buf.String())
		}
		if h.Fingerprint() != h2.Fingerprint() {
			t.Fatalf("round trip changed fingerprint %016x -> %016x\n%s",
				h.Fingerprint(), h2.Fingerprint(), buf.String())
		}
	}
}

// WriteHGR picks the narrowest fmt code that represents the instance.
func TestWriteHGRFmtSelection(t *testing.T) {
	cases := []struct{ in, wantHeader string }{
		{hgrFmt0, "4 7"},
		{hgrFmt1, "4 7 1"},
		{hgrFmt10, "4 7 10"},
		{hgrFmt11, "4 7 11"},
	}
	for _, tc := range cases {
		h, err := ReadHGR(strings.NewReader(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteHGR(&buf, h); err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(buf.String(), "\n")
		if first != tc.wantHeader {
			t.Fatalf("header = %q, want %q", first, tc.wantHeader)
		}
	}
}

// Every documented .hgr parse-error class, asserted by message prefix. The
// prefixes are the contract FORMATS.md documents; changing one is a breaking
// change to the error taxonomy.
func TestReadHGRErrors(t *testing.T) {
	cases := []struct{ name, in, wantPrefix string }{
		{"missing header", "% only a comment\n", "hgr: missing header"},
		{"header too short", "4\n", "hgr: line 1: malformed header"},
		{"header too long", "4 7 11 9\n", "hgr: line 1: malformed header"},
		{"bad net count", "x 7\n", `hgr: line 1: malformed header: bad net count "x"`},
		{"bad vertex count", "4 -7\n", `hgr: line 1: malformed header: bad vertex count "-7"`},
		{"zero vertices", "0 0\n", "hgr: line 1: malformed header: 0 vertices"},
		{"bad fmt code", "4 7 2\n", `hgr: line 1: unsupported fmt code "2"`},
		{"truncated nets", "2 3\n1 2\n", "hgr: truncated file: 1 of 2 net lines"},
		{"bad pin", "1 3\n1 x\n", `hgr: line 2: bad pin "x"`},
		{"pin zero", "1 3\n0 1\n", "hgr: line 2: pin 0 outside [1, 3]"},
		{"pin too large", "1 3\n1 4\n", "hgr: line 2: pin 4 outside [1, 3]"},
		{"bad net weight", "1 3 1\nx 1 2\n", `hgr: line 2: bad net weight "x"`},
		{"zero net weight", "1 3 1\n0 1 2\n", "hgr: line 2: bad net weight 0 (must be >= 1)"},
		{"weighted net no pins", "1 3 1\n5\n", "hgr: line 2: net 0 has no pins"},
		{"net weight overflow", "2 3 1\n9223372036854775807 1 2\n9223372036854775807 2 3\n",
			"hgr: line 3: total net weight overflows int64"},
		{"bad vertex weight", "1 2 10\n1 2\nx\n1\n", `hgr: line 3: bad vertex weight "x"`},
		{"zero vertex weight", "1 2 10\n1 2\n0\n1\n", "hgr: line 3: bad vertex weight 0 (must be >= 1)"},
		{"vertex weight trailing fields", "1 2 10\n1 2\n1 2\n", "hgr: line 3: vertex weight line has trailing fields"},
		{"truncated vertex weights", "1 2 10\n1 2\n1\n", "hgr: truncated file: 1 of 2 vertex weight lines"},
		{"vertex weight overflow", "1 2 10\n1 2\n9223372036854775807\n9223372036854775807\n",
			"hgr: line 4: total vertex weight overflows int64"},
		{"trailing line", "1 2\n1 2\n1 2\n", "hgr: line 3: unexpected trailing line"},
		{"token too long", strings.Repeat("9", 40) + " 7\n", "hgr: line 1: token too long"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadHGR(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ReadHGR accepted %q", tc.in)
			}
			if !strings.HasPrefix(err.Error(), tc.wantPrefix) {
				t.Fatalf("error = %q, want prefix %q", err, tc.wantPrefix)
			}
			var le *LimitError
			if errors.As(err, &le) {
				t.Fatalf("parse error %q should not be a LimitError", err)
			}
		})
	}
}

// Size rejections are *LimitError (servers map them to 413, not 400), and
// they fire against the declared header counts before anything is allocated.
func TestReadHGRLimits(t *testing.T) {
	lim := Limits{MaxVertices: 4, MaxNets: 3, MaxPins: 5}
	cases := []struct{ name, in, wantPrefix string }{
		{"vertices", "1 400000000\n1 2\n", "hgr: header declares 400000000 vertices, limit 4"},
		{"nets", "400000000 3\n", "hgr: header declares 400000000 nets, limit 3"},
		{"pins", "2 4\n1 2 3 4\n1 2 3 4\n", "hgr: line 3: pin count exceeds limit 5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadHGRLimits(strings.NewReader(tc.in), lim)
			if err == nil {
				t.Fatal("accepted oversized input")
			}
			var le *LimitError
			if !errors.As(err, &le) {
				t.Fatalf("error %T %q is not a *LimitError", err, err)
			}
			if !strings.HasPrefix(err.Error(), tc.wantPrefix) {
				t.Fatalf("error = %q, want prefix %q", err, tc.wantPrefix)
			}
		})
	}
}

func TestWriteHGRUnrepresentable(t *testing.T) {
	h, err := ReadHGR(strings.NewReader(hgrFmt0))
	if err != nil {
		t.Fatal(err)
	}
	_ = h // multi-resource graphs cannot come out of ReadHGR; build one directly
	mr := buildMultiResource(t)
	var buf bytes.Buffer
	err = WriteHGR(&buf, mr)
	if err == nil || !strings.HasPrefix(err.Error(), "hgr: cannot write 2-resource hypergraph") {
		t.Fatalf("WriteHGR(multi-resource) = %v, want cannot-write error", err)
	}
}

// ReadHGR parses an hMetis .hgr hypergraph with the package-default Limits.
func ReadHGR(r io.Reader) (*hypergraph.Hypergraph, error) {
	return ReadHGRLimits(r, Limits{})
}
