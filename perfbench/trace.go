package main

import (
	"repro/internal/fm"
	"repro/internal/multilevel"
)

// trace accumulates the per-layer counters of a traced run. Every field is
// filled from the benchmark's own timers around calls into a layer's public
// functions, or from counters the program already exposes (PhaseStats,
// fm.LocalizedResult, the hpartd response); nothing inside the program is
// instrumented for it. Times are summed over ops; perLayer divides by ops.
type trace struct {
	ops int

	parseS, parseBytes float64 // hgr.ReadProblem on the request bodies
	fingerprintS       float64 // Problem.Fingerprint
	checkS             float64 // the benchmark's independent output check

	phases       multilevel.PhaseStats
	levels       float64
	unattributed float64 // solve or run wall minus the tracked phase sum

	handlerS, overheadS float64 // ServeHTTP wall, and that minus elapsed_ms
	cacheHits, cached   int

	placeSelfS float64 // placement CPU minus partitioner phase time

	localized *fm.LocalizedResult // direct fm.LocalizedRefine, once per run
}

// addPhases adds one op's PhaseStats.
func (tr *trace) addPhases(st *multilevel.PhaseStats) {
	p := &tr.phases
	p.CoarsenNS += st.CoarsenNS
	p.InitNS += st.InitNS
	p.RefineNS += st.RefineNS
	p.RefineParallelNS += st.RefineParallelNS
	p.RefineLocalizedNS += st.RefineLocalizedNS
	p.Kernel.PinsScanned += st.Kernel.PinsScanned
	p.Kernel.PinScansAvoided += st.Kernel.PinScansAvoided
}

// perOp divides a summed quantity by the number of traced ops.
func (tr *trace) perOp(x float64) float64 {
	if tr.ops == 0 {
		return 0
	}
	return x / float64(tr.ops)
}

func ns(x int64) float64 { return float64(x) / 1e9 }

// selfTimes is each layer's self time per op: the part of an op's time spent
// in that layer and not in a layer it calls. fm's time is inside the
// multilevel phases and par's inside whichever layer forks, so neither has a
// self time of its own.
func (tr *trace) selfTimes() map[string]float64 {
	p := &tr.phases
	return map[string]float64{
		"hgr":        tr.perOp(tr.parseS),
		"hypergraph": tr.perOp(tr.fingerprintS),
		"partition":  tr.perOp(tr.checkS),
		"multilevel": tr.perOp(ns(p.TotalNS()) + tr.unattributed),
		"server":     tr.perOp(tr.overheadS),
		"place":      tr.perOp(tr.placeSelfS),
	}
}

// perLayer turns a traced run into the per-layer metrics. base is the
// untraced half of the same run, the reference for the tracing overhead.
func perLayer(tr *trace, s, base *sample, nproc int) []metric {
	p := &tr.phases
	n := tr.ops
	var parseRate float64
	if tr.parseS > 0 {
		parseRate = tr.parseBytes / 1e6 / tr.parseS
	}
	var avoided float64
	if scans := p.Kernel.PinsScanned + p.Kernel.PinScansAvoided; scans > 0 {
		avoided = float64(p.Kernel.PinScansAvoided) / float64(scans)
	}
	var hitFrac float64
	if tr.cached > 0 {
		hitFrac = float64(tr.cacheHits) / float64(tr.cached)
	}
	var loc fm.LocalizedResult
	if tr.localized != nil {
		loc = *tr.localized
	}
	var commit float64
	if loc.Searches > 0 {
		commit = float64(loc.Committed) / float64(loc.Searches)
	}
	return []metric{
		{"hgr.parse_s", tr.perOp(tr.parseS), "s", n},
		{"hgr.parse_mb_per_s", parseRate, "MB/s", n},
		{"hypergraph.fingerprint_s", tr.perOp(tr.fingerprintS), "s", n},
		{"partition.check_s", tr.perOp(tr.checkS), "s", n},
		{"multilevel.coarsen_s", tr.perOp(ns(p.CoarsenNS)), "s", n},
		{"multilevel.levels", tr.perOp(tr.levels), "count", n},
		{"multilevel.init_s", tr.perOp(ns(p.InitNS)), "s", n},
		{"multilevel.refine_rounds_s", tr.perOp(ns(p.RefineParallelNS)), "s", n},
		{"multilevel.refine_localized_s", tr.perOp(ns(p.RefineLocalizedNS)), "s", n},
		{"multilevel.refine_polish_s", tr.perOp(ns(p.RefineNS)), "s", n},
		{"multilevel.unattributed_s", tr.perOp(tr.unattributed), "s", n},
		{"fm.localized_rounds", float64(loc.Rounds), "count", 1},
		{"fm.localized_searches", float64(loc.Searches), "count", 1},
		{"fm.localized_commit_ratio", commit, "ratio", 1},
		{"fm.localized_gain", float64(loc.Gain), "count", 1},
		{"fm.pins_scanned", tr.perOp(float64(p.Kernel.PinsScanned)), "count", n},
		{"fm.pin_scan_avoided_ratio", avoided, "ratio", n},
		{"par.efficiency", s.cpu / (s.wall * float64(nproc)), "ratio", s.ops},
		{"server.handler_s", tr.perOp(tr.handlerS), "s", n},
		{"server.overhead_s", tr.perOp(tr.overheadS), "s", n},
		{"server.cache_hit_frac", hitFrac, "ratio", tr.cached},
		{"place.self_s", tr.perOp(tr.placeSelfS), "s", n},
		{"trace.overhead_frac", median(s.lat)/median(base.lat) - 1, "ratio", len(s.lat) + len(base.lat)},
	}
}
