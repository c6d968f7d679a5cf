package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/hgr"
	"repro/internal/hypergraph"
	"repro/internal/partition"
	"repro/internal/server"
)

// serve-hgr: nproc clients drive the in-process hpartd handler (no sockets)
// with .hgr + .fix uploads of one circuit, each instance with its own
// fixed-vertex draw. Each client owns its instances: it sends each one
// once cold (a hierarchy-cache miss: parse, coarsen, descend) and then
// serveWarm times warm (a hit: parse, fingerprint, descend, encode), so one
// cycle of the mix always holds the same share of hits and misses. This is
// the only workload through the hgr parser, the fingerprint, the hierarchy
// cache, admission and the JSON encoding.
const (
	serveScale   = 0.02 // of HUGE1: about 20k cells
	serveTol     = 0.05
	serveFixFrac = 0.05
	serveStarts  = 2
	serveWarm    = 3
	// serveObjectiveCycles is how many cycles the objective averages over:
	// the warm-up cycle and the measured ones every run makes.
	serveObjectiveCycles = 6
)

func newServe(seed uint64, nproc int) (*workload, error) {
	cfg := server.Config{
		Concurrency:        nproc,
		QueueDepth:         2 * nproc,
		RunWorkers:         1,
		CoarsenWorkers:     1,
		RefineWorkers:      1,
		LocalizedFMWorkers: 1,
		CacheEntries:       2 * nproc,
	}
	h, err := serveCircuit()
	if err != nil {
		return nil, err
	}
	var hgrText strings.Builder
	if err := hgr.WriteHGR(&hgrText, h); err != nil {
		return nil, err
	}
	b := &serveBench{
		seed:    seed,
		h:       h,
		hgr:     hgrText.String(),
		handler: server.New(cfg).Handler(),
		clients: make([]*serveInstance, nproc),
	}
	// The first cycle's instances are part of set-up; later ones are built
	// between rounds, outside the timer.
	if err := b.newInstances(); err != nil {
		return nil, err
	}
	first := b.clients[0].ref
	return &workload{
		clients:   nproc,
		cycle:     1 + serveWarm,
		minCycles: serveObjectiveCycles - 1,
		next:      b.next,
		objective: b.objective,
		layers: func(tr *trace) error {
			return directLocalized(tr, first, fm.ObjectiveCut, cfg.LocalizedFMWorkers, seed)
		},
		knobs: map[string]any{
			"k": 2, "tolerance": serveTol, "starts": serveStarts, "fix_fraction": serveFixFrac,
			"warm_per_cold": serveWarm, "concurrency": cfg.Concurrency, "queue_depth": cfg.QueueDepth,
			"run_workers": cfg.RunWorkers, "coarsen_workers": cfg.CoarsenWorkers,
			"refine_workers": cfg.RefineWorkers, "localized_fm_workers": cfg.LocalizedFMWorkers,
			"cache_entries": cfg.CacheEntries,
		},
		instance: problemSize(first),
	}, nil
}

type serveBench struct {
	seed    uint64
	h       *hypergraph.Hypergraph // the circuit every instance poses
	hgr     string                 // h as .hgr text
	handler http.Handler
	rounds  int
	made    int              // instances built per client so far
	clients []*serveInstance // each client's current instance
	cuts    []int64          // cut of each instance in the first cycles
}

// serveInstance is one uploaded instance with its reference problem, built
// by the benchmark from the generator output rather than from the upload.
type serveInstance struct {
	ref  *partition.Problem
	fix  string
	body []byte
	cut  int64 // of the cold response; warm ones must repeat it
	cold bool  // no response received yet
}

func (b *serveBench) newInstances() error {
	for c := range b.clients {
		inst, err := b.newInstance(mix(mix(b.seed, uint64(c)), uint64(b.made)))
		if err != nil {
			return err
		}
		b.clients[c] = inst
	}
	b.made++
	return nil
}

// newInstance poses the circuit with its own 5% fixed-vertex draw, so its
// fingerprint, and with it the cache key, is new.
func (b *serveBench) newInstance(seed uint64) (*serveInstance, error) {
	p := partition.NewFree(b.h, 2, serveTol)
	partition.ApplyFixFraction(p, serveFixFrac, seed)
	var fixText strings.Builder
	if err := hgr.WriteFix(&fixText, p); err != nil {
		return nil, err
	}
	body, err := json.Marshal(server.Request{
		HGR:       &server.HGRSpec{HGR: b.hgr, Fix: fixText.String()},
		K:         2,
		Tolerance: serveTol,
		Starts:    serveStarts,
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	return &serveInstance{ref: p, fix: fixText.String(), body: body, cold: true}, nil
}

// serveCircuit is HUGE1 at 2% scale with the preset's own netlist seed, in a
// form .hgr can carry: its weights must be at least 1, so the zero-area pads
// weigh 1.
func serveCircuit() (*hypergraph.Hypergraph, error) {
	pr, err := gen.PresetByName("HUGE1")
	if err != nil {
		return nil, err
	}
	nl, err := gen.Generate(pr.Params.Scaled(serveScale))
	if err != nil {
		return nil, err
	}
	hb := hypergraph.NewBuilder(1)
	for v := 0; v < nl.H.NumVertices(); v++ {
		hb.AddVertex(max(1, nl.H.Weight(v)))
	}
	pins := []int{}
	for e := 0; e < nl.H.NumNets(); e++ {
		pins = pins[:0]
		for _, v := range nl.H.Pins(e) {
			pins = append(pins, int(v))
		}
		hb.AddNet(pins...)
	}
	return hb.Build()
}

func (b *serveBench) next() ([]op, error) {
	if b.rounds > 0 && b.rounds%(1+serveWarm) == 0 {
		if err := b.newInstances(); err != nil {
			return nil, err
		}
	}
	b.rounds++
	ops := make([]op, len(b.clients))
	for c, inst := range b.clients {
		ops[c] = &serveOp{b: b, inst: inst, wantHit: !inst.cold}
	}
	return ops, nil
}

// objective is the mean cut over the responses of the first
// serveObjectiveCycles cycles; every response of one instance has one cut.
func (b *serveBench) objective() float64 {
	var sum float64
	for _, c := range b.cuts {
		sum += float64(c)
	}
	return sum / float64(len(b.cuts))
}

type serveOp struct {
	b       *serveBench
	inst    *serveInstance
	wantHit bool
	rec     *httptest.ResponseRecorder
	wall    float64
}

func (o *serveOp) run(bool) {
	req := httptest.NewRequest(http.MethodPost, "/partition", bytes.NewReader(o.inst.body))
	o.rec = httptest.NewRecorder()
	t0 := time.Now()
	o.b.handler.ServeHTTP(o.rec, req)
	o.wall = time.Since(t0).Seconds()
}

// check decodes the response and verifies it against the benchmark's own
// reference problem: masks, balance, cut and km1 recount, the expected cache
// outcome, and the same cut on every send of one instance.
func (o *serveOp) check(tr *trace, _ roundStats) error {
	if o.rec.Code != http.StatusOK {
		return fmt.Errorf("serve: status %d: %s", o.rec.Code, strings.TrimSpace(o.rec.Body.String()))
	}
	var resp server.Response
	if err := json.Unmarshal(o.rec.Body.Bytes(), &resp); err != nil {
		return fmt.Errorf("serve: decoding response: %w", err)
	}
	inst := o.inst
	a := make(partition.Assignment, len(resp.Assignment))
	for v, part := range resp.Assignment {
		if part < 0 || part >= resp.K {
			return fmt.Errorf("serve: vertex %d in part %d of %d", v, part, resp.K)
		}
		a[v] = int8(part)
	}
	t0 := time.Now()
	err := checkPartition(inst.ref, a, resp.Cut, resp.KMinus1)
	checkS := time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if resp.Phases == nil {
		return fmt.Errorf("serve: response carries no phases")
	}
	if resp.Truncated {
		return fmt.Errorf("serve: truncated run")
	}
	want := "miss"
	if o.wantHit {
		want = "hit"
	}
	if resp.Cache != want {
		return fmt.Errorf("serve: cache %q, want %q", resp.Cache, want)
	}
	if inst.cold {
		inst.cut, inst.cold = resp.Cut, false
		if o.b.made <= serveObjectiveCycles {
			o.b.cuts = append(o.b.cuts, resp.Cut)
		}
	} else if resp.Cut != inst.cut {
		return fmt.Errorf("serve: warm cut %d differs from the cold cut %d", resp.Cut, inst.cut)
	}
	if tr == nil {
		return nil
	}
	elapsed := resp.ElapsedMS / 1000
	t0 = time.Now()
	parsed, err := hgr.ReadProblem(strings.NewReader(o.b.hgr), strings.NewReader(inst.fix), 2, serveTol)
	parseS := time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("serve: parsing the request body: %w", err)
	}
	t0 = time.Now()
	fp := parsed.Fingerprint()
	fingerprintS := time.Since(t0).Seconds()
	if fp != inst.ref.Fingerprint() {
		return fmt.Errorf("serve: parsed upload fingerprint differs from the reference problem's")
	}
	tr.ops++
	tr.parseS += parseS
	tr.parseBytes += float64(len(o.b.hgr) + len(inst.fix))
	tr.fingerprintS += fingerprintS
	tr.checkS += checkS
	tr.addPhases(resp.Phases)
	tr.levels += float64(resp.Levels)
	tr.unattributed += elapsed - ns(resp.Phases.TotalNS()) - parseS - fingerprintS
	tr.handlerS += o.wall
	tr.overheadS += o.wall - elapsed
	tr.cached++
	if resp.Cache == "hit" {
		tr.cacheHits++
	}
	return nil
}
