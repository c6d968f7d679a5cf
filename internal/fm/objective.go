package fm

import "fmt"

// Objective selects the quality metric an FM run optimizes and reports as
// its Score. The zero value is ObjectiveCut, so existing configurations are
// unchanged.
//
// The kernel's incremental gain algebra is the (λ-1) connectivity delta for
// every objective in the family (see DESIGN.md "objective layer"): moving a
// pin out of a part it covered alone gains the net weight, moving it into a
// part the net did not touch loses it. At k = 2 that delta is exactly the
// classic FM cut gain, and for km1 it is the connectivity gain by
// definition, so cut and km1 runs follow byte-identical move trajectories.
// Where the objectives diverge is scoring and selection: which number a run
// reports as its Score, and therefore which candidate a multistart driver
// keeps.
type Objective int8

const (
	// ObjectiveCut optimizes the weighted net cut (nets spanning more than
	// one part count once). This is the paper's objective and the default.
	ObjectiveCut Objective = iota
	// ObjectiveKM1 optimizes connectivity-minus-one: every net contributes
	// weight*(λ-1) where λ is the number of parts it touches. Equal to the
	// cut at k = 2; strictly finer-grained for k > 2.
	ObjectiveKM1
)

// String returns the canonical flag/wire spelling ("cut", "km1").
func (o Objective) String() string {
	switch o {
	case ObjectiveCut:
		return "cut"
	case ObjectiveKM1:
		return "km1"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective parses the flag/wire spelling produced by String. The empty
// string parses as ObjectiveCut so absent request fields keep today's
// behavior.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "", "cut":
		return ObjectiveCut, nil
	case "km1":
		return ObjectiveKM1, nil
	default:
		return 0, fmt.Errorf("fm: unknown objective %q (want cut or km1)", s)
	}
}
