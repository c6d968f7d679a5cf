package stats_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestMinInt64(t *testing.T) {
	if got := stats.MinInt64([]int64{5, -2, 9}); got != -2 {
		t.Errorf("MinInt64 = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic for empty input")
		}
	}()
	stats.MinInt64(nil)
}

func TestTableRender(t *testing.T) {
	tb := &stats.Table{Header: []string{"name", "value"}}
	tb.Add("alpha", 3.14159)
	tb.Add("b", 42)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "3.14") {
		t.Errorf("float formatting: %q", lines[2])
	}
	// Alignment: "alpha" column width 5.
	if !strings.HasPrefix(lines[3], "b    ") {
		t.Errorf("misaligned row: %q", lines[3])
	}
}

func TestTableCSV(t *testing.T) {
	tb := &stats.Table{Header: []string{"a", "b"}}
	tb.Add(1, 2)
	var buf bytes.Buffer
	if err := tb.CSV(&buf); err != nil {
		t.Fatalf("CSV: %v", err)
	}
	if buf.String() != "a,b\n1,2\n" {
		t.Errorf("CSV = %q", buf.String())
	}
}
