package hgr

import (
	"bytes"
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
}
