package hgr

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/partition"
)

func TestPartsRoundTrip(t *testing.T) {
	a := partition.Assignment{0, 2, 1, 1, 3, 0}
	var buf bytes.Buffer
	if err := WriteParts(&buf, a); err != nil {
		t.Fatalf("WriteParts: %v", err)
	}
	if buf.String() != "0\n2\n1\n1\n3\n0\n" {
		t.Fatalf("WriteParts produced %q", buf.String())
	}
	got, err := ReadParts(bytes.NewReader(buf.Bytes()), len(a), 4)
	if err != nil {
		t.Fatalf("ReadParts: %v", err)
	}
	for v := range a {
		if got[v] != a[v] {
			t.Fatalf("vertex %d: round trip part %d, want %d", v, got[v], a[v])
		}
	}
}

func TestReadPartsErrors(t *testing.T) {
	cases := []struct{ name, in, wantPrefix string }{
		{"bad part id", "x\n0\n1\n", `parts: line 1: bad part id "x"`},
		{"part out of range", "0\n4\n1\n", "parts: line 2: part 4 outside [0, 4)"},
		{"negative part", "-1\n0\n1\n", "parts: line 1: part -1 outside [0, 4)"},
		{"too many entries", "0\n1\n2\n3\n", "parts: line 4: more part entries than the 3 vertices"},
		{"truncated", "0\n1\n", "parts: file lists 2 of 3 part entries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadParts(strings.NewReader(tc.in), 3, 4)
			if err == nil {
				t.Fatalf("ReadParts accepted %q", tc.in)
			}
			if !strings.HasPrefix(err.Error(), tc.wantPrefix) {
				t.Fatalf("error = %q, want prefix %q", err, tc.wantPrefix)
			}
		})
	}
	if _, err := ReadParts(strings.NewReader("0\n"), 1, 65); err == nil ||
		!strings.HasPrefix(err.Error(), "parts: k = 65 outside [2, 64]") {
		t.Fatalf("ReadParts(k=65) = %v, want k-range error", err)
	}
}

// ReadParts parses a partition file back into an assignment over numVerts
// vertices of a k-way problem. Conventionally one part id per line; any
// whitespace separation is accepted, '%' comments and blank lines are
// ignored, and the entry count must equal numVerts exactly.
func ReadParts(r io.Reader, numVerts, k int) (partition.Assignment, error) {
	if k < 2 || k > partition.MaxParts {
		return nil, fmt.Errorf("parts: k = %d outside [2, %d]", k, partition.MaxParts)
	}
	lx := newLexer(r, "parts")
	a := make(partition.Assignment, numVerts)
	v := 0
	for {
		t, err := lx.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if v >= numVerts {
			return nil, lx.errf(t.line, "more part entries than the %d vertices", numVerts)
		}
		p, perr := strconv.Atoi(t.text)
		if perr != nil {
			return nil, lx.errf(t.line, "bad part id %q", t.text)
		}
		if p < 0 || p >= k {
			return nil, lx.errf(t.line, "part %d outside [0, %d)", p, k)
		}
		a[v] = int8(p)
		v++
	}
	if v < numVerts {
		return nil, fmt.Errorf("parts: file lists %d of %d part entries", v, numVerts)
	}
	return a, nil
}
