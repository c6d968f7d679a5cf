package experiments_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/multilevel"
)

// rowsHash is the FNV-1a hash of rows printed with %+v, one per line.
// Callers zero every time.Duration field first: wall-clock is the only
// thing a study may change between runs.
func rowsHash[T any](rows []T) string {
	h := fnv.New64a()
	for _, r := range rows {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestStudyGoldens pins the rows of every study on one small netlist to
// recorded hashes. The multistart studies run at Workers 1 and 3 and must
// give the same rows at both, so any change to how cells are scheduled,
// seeded or reduced shows up here.
func TestStudyGoldens(t *testing.T) {
	h := testNetlist(t, 200, 24)
	sweep := func(workers int, ml multilevel.Config) experiments.SweepConfig {
		return experiments.SweepConfig{
			Fractions:  []float64{0, 0.1, 0.3},
			Starts:     []int{1, 2},
			Trials:     2,
			Tolerance:  0.1,
			GoodStarts: 2,
			ML:         ml,
			Seed:       24,
			Workers:    workers,
		}
	}
	flat := experiments.FlatConfig{
		Fractions:  []float64{0, 0.1, 0.3},
		Runs:       3,
		Tolerance:  0.1,
		GoodStarts: 2,
		Seed:       24,
	}
	studies := []struct {
		name    string
		workers bool
		run     func(workers int) (string, error)
	}{
		{"sweep", true, func(w int) (string, error) {
			res, err := experiments.RunSweep("T200", h, sweep(w, multilevel.Config{}))
			if err != nil {
				return "", err
			}
			for i := range res.Points {
				res.Points[i].AvgCPU = 0
			}
			return rowsHash([]any{res.BestFreeCut, res.GoodSolution, res.RandBest, res.Points}), nil
		}},
		{"constraint", true, func(w int) (string, error) {
			rows, err := experiments.ConstraintStudy("T200", h, sweep(w, multilevel.Config{}))
			return rowsHash(rows), err
		}},
		{"starts", true, func(w int) (string, error) {
			rows, err := experiments.StartsRequired("T200", h, sweep(w, multilevel.Config{}))
			return rowsHash(rows), err
		}},
		{"objective", true, func(w int) (string, error) {
			rows, err := experiments.ObjectiveStudy("T200", h, []int{2, 4}, sweep(w, multilevel.Config{}))
			return rowsHash(rows), err
		}},
		{"multiway", true, func(w int) (string, error) {
			rows, err := experiments.MultiwaySweep("T200", h, 4, sweep(w, multilevel.Config{}))
			return rowsHash(rows), err
		}},
		{"table2", false, func(int) (string, error) {
			rows, err := experiments.TableII("T200", h, flat)
			return rowsHash(rows), err
		}},
		{"table3", false, func(int) (string, error) {
			rows, err := experiments.TableIII("T200", h, []float64{1, 0.25, 0.1}, flat)
			for i := range rows {
				rows[i].AvgCPU = 0
			}
			return rowsHash(rows), err
		}},
		{"profile", false, func(int) (string, error) {
			rows, err := experiments.PassProfile("T200", h, flat)
			return rowsHash(rows), err
		}},
		{"policy", false, func(int) (string, error) {
			rows, err := experiments.PolicyStudy("T200", h, flat)
			return rowsHash(rows), err
		}},
	}
	want := map[string]string{
		"sweep":      "86ccd5bde11e1f4a",
		"constraint": "29cff2dad9365743",
		"starts":     "e4669fdb97bb3935",
		"objective":  "e5a1d3c14a19ba0a",
		"multiway":   "889af47f46451846",
		"table2":     "8e746d876e0e1ae8",
		"table3":     "3c77609eef382d2e",
		"profile":    "eb43de3b70617ecf",
		"policy":     "b3eceafe438cc86a",
	}
	for _, s := range studies {
		workerCounts := []int{1}
		if s.workers {
			workerCounts = []int{1, 3}
		}
		for _, w := range workerCounts {
			got, err := s.run(w)
			if err != nil {
				t.Fatalf("%s at Workers %d: %v", s.name, w, err)
			}
			if got != want[s.name] {
				t.Errorf("%s at Workers %d: rows hash %s, want %s", s.name, w, got, want[s.name])
			}
		}
	}
}
