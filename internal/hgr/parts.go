package hgr

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/partition"
)

// WriteParts writes an assignment in the partition-file format the
// hMetis/KaHyPar family emits and placement flows read back: one part id per
// line, in vertex order.
func WriteParts(w io.Writer, a partition.Assignment) error {
	bw := bufio.NewWriter(w)
	for _, part := range a {
		fmt.Fprintf(bw, "%d\n", part)
	}
	return bw.Flush()
}
