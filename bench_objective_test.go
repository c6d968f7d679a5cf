package repro

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/fm"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// BenchmarkObjective measures multistart direct k-way partitioning under the
// cut objective against the connectivity (km1) objective at k = 2, 4, 8. Both
// sides run the identical candidate starts (same seeds; the FM kernel's move
// trajectory is objective-independent, see fm.Objective), so the comparison
// isolates what selecting on each metric buys. The first run writes
// BENCH_objective.json, a committed baseline for the objective layer, and
// enforces the quality bar: at every k the km1-optimized mean km1 must be at
// or below the cut-optimized mean km1. At k = 2 the objectives coincide, so
// that row doubles as an identity check (equal means on both metrics).
func BenchmarkObjective(b *testing.B) {
	nl := mustNetlist(b, "IBM01S", benchScale())
	const starts = 4
	runOne := func(k int, obj fm.Objective, seed uint64) (*multilevel.Result, time.Duration) {
		p := partition.NewFree(nl.H, k, 0.05)
		rng := rand.New(rand.NewPCG(seed, 0x0b7))
		t0 := time.Now()
		res, err := solve(p, multilevel.Config{Workers: 1, Objective: obj}, multilevel.Spec{Starts: starts, KWay: true}, rng)
		if err != nil {
			b.Fatal(err)
		}
		return res, time.Since(t0)
	}
	ks := []int{2, 4, 8}
	for _, k := range ks {
		for _, obj := range []fm.Objective{fm.ObjectiveCut, fm.ObjectiveKM1} {
			b.Run(fmt.Sprintf("%s/k=%d", obj, k), func(b *testing.B) {
				var res *multilevel.Result
				for i := 0; i < b.N; i++ {
					res, _ = runOne(k, obj, 1)
				}
				b.ReportMetric(float64(res.Cut), "cut")
				b.ReportMetric(float64(res.KMinus1), "km1")
			})
		}
	}
	objectiveBaselineOnce.Do(func() {
		base := objectiveBaseline{Instance: "IBM01S", Scale: benchScale(), Seeds: 3, Starts: starts}
		for _, k := range ks {
			row := objectiveSample{K: k}
			for seed := uint64(1); seed <= uint64(base.Seeds); seed++ {
				cres, ct := runOne(k, fm.ObjectiveCut, seed)
				kres, kt := runOne(k, fm.ObjectiveKM1, seed)
				row.CutOptCut += float64(cres.Cut)
				row.CutOptKM1 += float64(cres.KMinus1)
				row.KM1OptCut += float64(kres.Cut)
				row.KM1OptKM1 += float64(kres.KMinus1)
				row.CutNS += ct.Nanoseconds()
				row.KM1NS += kt.Nanoseconds()
			}
			n := float64(base.Seeds)
			row.CutOptCut /= n
			row.CutOptKM1 /= n
			row.KM1OptCut /= n
			row.KM1OptKM1 /= n
			row.CutNS /= int64(base.Seeds)
			row.KM1NS /= int64(base.Seeds)
			if row.KM1OptKM1 > row.CutOptKM1 {
				b.Errorf("k=%d: km1-optimized mean km1 %.1f > cut-optimized mean km1 %.1f (acceptance bar)",
					k, row.KM1OptKM1, row.CutOptKM1)
			}
			if k == 2 && (row.KM1OptKM1 != row.CutOptKM1 || row.KM1OptCut != row.CutOptCut) {
				b.Errorf("k=2: objectives must coincide, got cut-opt (%.1f,%.1f) vs km1-opt (%.1f,%.1f)",
					row.CutOptCut, row.CutOptKM1, row.KM1OptCut, row.KM1OptKM1)
			}
			base.Rows = append(base.Rows, row)
		}
		buf, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_objective.json", append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		fmt.Println("wrote BENCH_objective.json")
	})
}

var objectiveBaselineOnce sync.Once

// objectiveBaseline is the schema of BENCH_objective.json.
type objectiveBaseline struct {
	Instance string            `json:"instance"`
	Scale    float64           `json:"scale"`
	Seeds    int               `json:"seeds"`
	Starts   int               `json:"starts"`
	Rows     []objectiveSample `json:"rows"`
}

type objectiveSample struct {
	K         int     `json:"k"`
	CutOptCut float64 `json:"cut_opt_cut"`
	CutOptKM1 float64 `json:"cut_opt_km1"`
	KM1OptCut float64 `json:"km1_opt_cut"`
	KM1OptKM1 float64 `json:"km1_opt_km1"`
	CutNS     int64   `json:"cut_ns"`
	KM1NS     int64   `json:"km1_ns"`
}
