package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// workload is one closed-loop traffic mix: clients that each wait for their
// reply before sending the next request.
type workload struct {
	clients int
	// cycle is the number of rounds that make one whole unit of the mix; a
	// run always measures whole cycles, so its mix of op kinds is exact.
	cycle int
	// minCycles is the fewest cycles one measured stretch runs, so that the
	// ops the objective is computed from always run.
	minCycles int
	// next prepares the next round, one op per client. It runs outside the
	// timer.
	next func() ([]op, error)
	// objective reports the run's solution quality. It depends only on the
	// seed: every workload computes it from ops that every run performs.
	objective func() float64
	// layers makes the traced run's direct calls into single layers.
	layers func(tr *trace) error
	// knobs and instance are recorded in the run metadata.
	knobs    map[string]any
	instance map[string]any
}

// op is one request of one client.
type op interface {
	// run is the timed call into the program.
	run(traced bool)
	// check verifies the output independently of the engine, outside the
	// timer, and adds the op's counters to tr when tr is non-nil. rs is the
	// wall and CPU time of the round the op ran in.
	check(tr *trace, rs roundStats) error
}

type roundStats struct {
	wall, cpu float64
}

// sample is what one measured stretch of rounds observed.
type sample struct {
	lat       []float64 // latency of every measured op, seconds
	rate      []float64 // ops per wall second of each measured cycle
	cpuPerOp  []float64 // process CPU seconds per op of each measured cycle
	wall, cpu float64   // summed over measured rounds, seconds
	ops       int       // measured ops
	attempted int       // every op run, warm-up included
	failed    int
}

// measure runs whole cycles until seconds have passed, after one untimed
// warm-up cycle when warm is set (the first ops of a process run slow while
// the heap grows and caches fill). The collector runs between rounds, outside
// the timer, so one op's garbage is not collected on the next op's clock.
func measure(w *workload, seconds float64, tr *trace, warm bool) (*sample, error) {
	s := &sample{}
	if warm {
		for r := 0; r < w.cycle; r++ {
			if err := round(w, s, nil, false); err != nil {
				return nil, err
			}
		}
	}
	start := time.Now()
	for c := 0; c < w.minCycles || time.Since(start).Seconds() < seconds; c++ {
		ops, wall, cpu := s.ops, s.wall, s.cpu
		for r := 0; r < w.cycle; r++ {
			if err := round(w, s, tr, true); err != nil {
				return nil, err
			}
		}
		n := float64(s.ops - ops)
		s.rate = append(s.rate, n/(s.wall-wall))
		s.cpuPerOp = append(s.cpuPerOp, (s.cpu-cpu)/n)
	}
	return s, nil
}

// round runs one op per client at once and checks them. The ops run traced
// when tr is non-nil; record adds them to the sample.
func round(w *workload, s *sample, tr *trace, record bool) error {
	ops, err := w.next()
	if err != nil {
		return err
	}
	runtime.GC()
	lat := make([]float64, len(ops))
	timed := func(i int) {
		t := time.Now()
		ops[i].run(tr != nil)
		lat[i] = time.Since(t).Seconds()
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range ops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			timed(i)
		}(i)
	}
	wg.Wait()
	rs := roundStats{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	for _, o := range ops {
		s.attempted++
		if err := o.check(tr, rs); err != nil {
			s.failed++
			fmt.Fprintln(os.Stderr, "perfbench: failed op:", err)
		}
	}
	if record {
		s.lat = append(s.lat, lat...)
		s.wall += rs.wall
		s.cpu += rs.cpu
		s.ops += len(ops)
	}
	return nil
}

// cpuSeconds is the user plus system CPU time of the whole process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
