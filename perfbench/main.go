// Command perfbench is the repository benchmark. It builds one workload's
// inputs from a seed, drives the engine through its public packages in a
// closed loop for a fixed time, checks every output independently of the
// engine, and prints the end-to-end metrics — or, with --trace 1, the
// per-layer metrics of a traced run — as the last line of standard output.
//
// Run it through run.sh, which builds it from the surrounding checkout:
//
//	bash perfbench/run.sh --workload solve-k4-fixed --seed 1 --seconds 20 --trace 0
//
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupRepeats is how many times a run builds its fixtures; setup_s is the
// median, so one slow build (page faults, a neighbour's burst) does not move
// it.
const setupRepeats = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload: solve-k4-fixed, place-ibm or serve-hgr")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed builds the same inputs")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics from a traced run")
		commit  = flag.String("commit", "unknown", "commit recorded in the run metadata")
	)
	flag.Parse()
	ok, err := run(*name, *seed, *seconds, *trace == 1, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// workloads maps each workload name to the function that sets it up.
var workloads = map[string]func(seed uint64, nproc int) (*workload, error){
	"solve-k4-fixed": newSolve,
	"place-ibm":      newPlace,
	"serve-hgr":      newServe,
}

func run(name string, seed uint64, seconds float64, traced bool, commit string) (bool, error) {
	setup, found := workloads[name]
	if !found {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return false, fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	// Pin the scheduler to the CPUs this process may use (nproc) and the
	// collector to its default pacing, whatever the environment says.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	debug.SetGCPercent(100)

	var w *workload
	setups := make([]float64, setupRepeats)
	for i := range setups {
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = setup(seed, nproc); err != nil {
			return false, fmt.Errorf("%s setup: %w", name, err)
		}
		setups[i] = time.Since(t0).Seconds()
	}

	meta := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"clients":    w.clients,
		"knobs":      w.knobs,
		"instance":   w.instance,
	}
	printLine("meta", meta)

	var (
		s       *sample
		metrics []metric
		err     error
	)
	if !traced {
		if s, err = measure(w, seconds, nil, true); err != nil {
			return false, err
		}
		metrics = endToEnd(s, median(setups), w.objective())
	} else {
		// The untraced half gives the baseline the tracing overhead is
		// measured against, on the same seed in the same process.
		var base *sample
		if base, err = measure(w, seconds/2, nil, true); err != nil {
			return false, err
		}
		tr := &trace{}
		if s, err = measure(w, seconds/2, tr, false); err != nil {
			return false, err
		}
		if err := w.layers(tr); err != nil {
			return false, err
		}
		s.attempted += base.attempted
		s.failed += base.failed
		metrics = perLayer(tr, s, base, nproc)
		printLine("layer_self_s", tr.selfTimes())
	}

	detail := map[string]any{"fail_frac": float64(s.failed) / float64(s.attempted)}
	for _, m := range metrics {
		detail[m.name] = map[string]any{"value": m.value, "unit": m.unit, "samples": m.samples}
	}
	printLine("metrics", detail)

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{s.failed == 0, s.attempted, s.failed, map[string]map[string]any{}}
	for _, m := range metrics {
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return s.failed == 0, nil
}

// metric is one reported number with its unit and the count of samples it
// summarizes.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// endToEnd reports throughput and CPU cost as medians over whole cycles, so
// one op slowed by a neighbour's burst moves them no more than it moves the
// median latency.
func endToEnd(s *sample, setup, objective float64) []metric {
	return []metric{
		{"setup_s", setup, "s", setupRepeats},
		{"op_p50_s", median(s.lat), "s", len(s.lat)},
		{"ops_per_s", median(s.rate), "1/s", len(s.rate)},
		{"cpu_per_op_s", median(s.cpuPerOp), "s", len(s.cpuPerOp)},
		{"objective", objective, "cost", 1},
		{"peak_rss_mb", peakRSSMB(), "MB", 1},
	}
}

// printLine writes one labelled JSON line of run detail. The last line of
// standard output is reserved for the result object.
func printLine(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Printf("%s %s\n", label, b)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
