package server

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/hgr"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// Request is the JSON body of POST /partition. Exactly one of Preset and
// Hypergraph names the instance; everything else has a server-side default.
// A request is a complete, self-contained description of a deterministic
// computation: two identical bodies get identical responses (whether served
// cold or from the hierarchy cache), unless a run is cut short — see
// Response.Truncated. A request describes the problem, not the machine:
// every worker count and refinement stage comes from the server's Config.
type Request struct {
	// Preset names a built-in generator circuit (see GET /presets) at an
	// optional scale factor.
	Preset *PresetSpec `json:"preset,omitempty"`
	// Hypergraph is an inline netlist upload.
	Hypergraph *HypergraphSpec `json:"hypergraph,omitempty"`
	// HGR is an inline upload in the hMetis exchange formats: the netlist as
	// .hgr text, constraints as optional .fix text. An instance uploaded this
	// way is indistinguishable downstream from the same instance posed as
	// "hypergraph" + "fixed" — same responses, same hierarchy-cache entries.
	HGR *HGRSpec `json:"hgr,omitempty"`

	// K is the number of parts (default 2). k = 2 requests are served
	// through the hierarchy cache; k > 2 requests run the direct k-way
	// driver uncached.
	K int `json:"k,omitempty"`
	// Tolerance is the relative balance tolerance (default 0.02).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Fixed lists explicit per-vertex constraints: a single part fixes the
	// vertex, several parts form an OR-region mask.
	Fixed []FixSpec `json:"fixed,omitempty"`
	// FixFraction, with FixSeed, fixes that fraction of vertices chosen and
	// assigned deterministically (round-robin over a seeded shuffle) — the
	// quick way to pose a paper-style fixed-terminals instance against a
	// preset without uploading masks.
	FixFraction float64 `json:"fix_fraction,omitempty"`
	// FixSeed seeds FixFraction's vertex choice (default 1).
	FixSeed uint64 `json:"fix_seed,omitempty"`

	// Starts is the number of multistart descents (default 4).
	Starts int `json:"starts,omitempty"`
	// Hierarchies is the number of coarsening hierarchies backing a k = 2
	// run (default min(2, starts)); starts beyond it are follower descents
	// with the pass cutoff, exactly as Solve's Spec.Hierarchies followers.
	Hierarchies int `json:"hierarchies,omitempty"`
	// Policy selects the FM discipline: "clip" (default) or "lifo".
	Policy string `json:"policy,omitempty"`
	// Objective selects the metric the run optimizes and selects starts by:
	// "cut" (default, the paper's weighted net cut) or "km1"
	// (connectivity-minus-one). Whatever the choice, the response reports
	// cut, km1 and soed of the winning assignment. Cut and km1 requests
	// never share hierarchy-cache entries (the key covers the objective).
	Objective string `json:"objective,omitempty"`
	// Cutoff applies the paper's pass-length cutoff fraction to refinement
	// (0 or 1 disables).
	Cutoff float64 `json:"cutoff,omitempty"`
	// Seed makes the run deterministic (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// TimeoutMS bounds the run's wall clock; a run cut short returns the
	// best completed result with "truncated": true (or 504 if nothing
	// finished). 0 means the server default; values above the server
	// maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// PresetSpec names a generator circuit.
type PresetSpec struct {
	// Name is an IBMPresets name, e.g. "IBM01S".
	Name string `json:"name"`
	// Scale shrinks the circuit (default 1.0, the published size).
	Scale float64 `json:"scale,omitempty"`
}

// HypergraphSpec is an inline netlist: nets as vertex-index lists plus
// per-vertex weights. Vertices are implicitly 0..N-1 where N is the weight
// count.
type HypergraphSpec struct {
	// Areas holds the primary-resource vertex weights (cell areas) and
	// defines the vertex count.
	Areas []int64 `json:"areas"`
	// ExtraResources optionally adds more weight resources, each a slice
	// parallel to Areas (the multi-area extension).
	ExtraResources [][]int64 `json:"extra_resources,omitempty"`
	// Pads lists vertex indices that are zero-area I/O pads.
	Pads []int `json:"pads,omitempty"`
	// Nets lists each net's pins as vertex indices (>= 2 pins per net).
	Nets [][]int `json:"nets"`
	// NetWeights optionally weighs each net (default 1).
	NetWeights []int64 `json:"net_weights,omitempty"`
}

// HGRSpec is an inline upload in the standard exchange formats. The texts
// are parsed with the same hostile-input limits the server applies to JSON
// uploads (line-numbered 400s for malformed content, 413 for oversized
// declarations); see FORMATS.md for both grammars.
type HGRSpec struct {
	// HGR is the hMetis .hgr netlist text (fmt codes 0, 1, 10, 11).
	HGR string `json:"hgr"`
	// Fix is optional KaHyPar-style fixed-vertex text: one line per vertex,
	// -1 for free, a part id to fix, several part ids for an OR-region.
	// The request's "fixed" list and "fix_fraction" still apply on top.
	Fix string `json:"fix,omitempty"`
}

// FixSpec constrains one vertex to a set of allowed parts.
type FixSpec struct {
	Vertex int   `json:"vertex"`
	Parts  []int `json:"parts"`
}

// mask returns the allowed parts as a mask; validate has checked each part.
func (f FixSpec) mask() partition.Mask {
	var m partition.Mask
	for _, q := range f.Parts {
		m = m.With(q)
	}
	return m
}

// Response is the JSON body of a successful POST /partition.
type Response struct {
	Instance string `json:"instance"`
	Vertices int    `json:"vertices"`
	Nets     int    `json:"nets"`
	Pins     int    `json:"pins"`
	K        int    `json:"k"`
	Fixed    int    `json:"fixed"`

	// Cut, KMinus1 and SOED report the three standard objectives of the
	// winning assignment, whichever one the run optimized; Objective echoes
	// the effective choice ("cut" or "km1").
	Cut        int64  `json:"cut"`
	KMinus1    int64  `json:"km1"`
	SOED       int64  `json:"soed"`
	Objective  string `json:"objective"`
	Assignment []int  `json:"assignment"`
	// Starts is the number of descents that actually completed;
	// RequestedStarts what the request asked for.
	Starts          int  `json:"starts"`
	RequestedStarts int  `json:"requested_starts"`
	Truncated       bool `json:"truncated"`
	Levels          int  `json:"levels"`
	// Cache is "hit", "miss" or "bypass" (k > 2 runs are uncached).
	Cache       string    `json:"cache"`
	ElapsedMS   float64   `json:"elapsed_ms"`
	PartWeights [][]int64 `json:"part_weights"`
	// Phases carries the run's per-phase wall time and FM-kernel counters
	// (zero coarsen time is the signature of a cache hit).
	Phases *multilevel.PhaseStats `json:"phases,omitempty"`
}

// errorResponse is the JSON body of any non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
	// RetryAfterSec mirrors the Retry-After header on 429/503.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// withDefaults fills the request's defaulted fields.
func (r Request) withDefaults() Request {
	if r.K == 0 {
		r.K = 2
	}
	if r.Tolerance <= 0 {
		r.Tolerance = 0.02
	}
	if r.Starts < 1 {
		r.Starts = 4
	}
	if r.Hierarchies < 1 {
		r.Hierarchies = 2
	}
	if r.Hierarchies > r.Starts {
		r.Hierarchies = r.Starts
	}
	if r.Policy == "" {
		r.Policy = "clip"
	}
	if r.Objective == "" {
		r.Objective = "cut"
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.FixSeed == 0 {
		r.FixSeed = 1
	}
	if r.Preset != nil && r.Preset.Scale <= 0 {
		p := *r.Preset
		p.Scale = 1
		r.Preset = &p
	}
	return r
}

// validate rejects structurally bad requests with a client-facing message.
func (r Request) validate(cfg Config) error {
	sources := 0
	for _, given := range []bool{r.Preset != nil, r.Hypergraph != nil, r.HGR != nil} {
		if given {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("exactly one of \"preset\", \"hypergraph\" and \"hgr\" must be given")
	}
	if r.K < 2 || r.K > partition.MaxParts {
		return fmt.Errorf("k = %d outside [2, %d]", r.K, partition.MaxParts)
	}
	if r.Policy != "clip" && r.Policy != "lifo" {
		return fmt.Errorf("unknown policy %q (want clip or lifo)", r.Policy)
	}
	if _, err := fm.ParseObjective(r.Objective); err != nil {
		return fmt.Errorf("unknown objective %q (want cut or km1)", r.Objective)
	}
	if r.Cutoff < 0 || r.Cutoff > 1 {
		return fmt.Errorf("cutoff %v outside [0, 1]", r.Cutoff)
	}
	if r.FixFraction < 0 || r.FixFraction > 1 {
		return fmt.Errorf("fix_fraction %v outside [0, 1]", r.FixFraction)
	}
	if r.Starts > cfg.MaxStarts {
		return fmt.Errorf("starts %d exceeds server limit %d", r.Starts, cfg.MaxStarts)
	}
	for _, fx := range r.Fixed {
		if len(fx.Parts) == 0 {
			return fmt.Errorf("fixed vertex %d has no allowed parts", fx.Vertex)
		}
		for _, q := range fx.Parts {
			if q < 0 || q >= r.K {
				return fmt.Errorf("fixed vertex %d names part %d outside [0, %d)", fx.Vertex, q, r.K)
			}
		}
	}
	if r.Preset != nil {
		if _, err := gen.PresetByName(r.Preset.Name); err != nil {
			return fmt.Errorf("unknown preset %q", r.Preset.Name)
		}
		if r.Preset.Scale > 1 {
			return fmt.Errorf("preset scale %v exceeds 1", r.Preset.Scale)
		}
	}
	if hg := r.Hypergraph; hg != nil {
		if len(hg.Areas) < 2 {
			return fmt.Errorf("hypergraph needs at least 2 vertices, got %d", len(hg.Areas))
		}
		if len(hg.Nets) < 1 {
			return fmt.Errorf("hypergraph has no nets")
		}
		if len(hg.Areas) > cfg.MaxVertices {
			return errTooLarge{fmt.Sprintf("hypergraph has %d vertices, limit %d", len(hg.Areas), cfg.MaxVertices)}
		}
		if len(hg.Nets) > cfg.MaxNets {
			return errTooLarge{fmt.Sprintf("hypergraph has %d nets, limit %d", len(hg.Nets), cfg.MaxNets)}
		}
	}
	if r.HGR != nil && strings.TrimSpace(r.HGR.HGR) == "" {
		return fmt.Errorf("hgr upload has empty netlist text")
	}
	if r.Preset != nil {
		pr, _ := gen.PresetByName(r.Preset.Name)
		cells := pr.Params.Scaled(r.Preset.Scale).Cells
		if cells > cfg.MaxVertices {
			return errTooLarge{fmt.Sprintf("preset at scale %v has ~%d cells, limit %d", r.Preset.Scale, cells, cfg.MaxVertices)}
		}
	}
	return nil
}

// errTooLarge marks validation failures that should map to 413 rather than
// 400: the request is well-formed but exceeds the server's size limits.
type errTooLarge struct{ msg string }

func (e errTooLarge) Error() string { return e.msg }

// cacheKey returns the hierarchy-cache key for a k = 2 request: a pure
// function of everything that determines the hierarchies — the instance
// (preset parameters, or the built problem's fingerprint for uploads), the
// constraint set, the coarsening-relevant engine config and the hierarchy
// count. For preset instances the key is computable WITHOUT generating the
// netlist, so warm requests skip generation entirely; prob may be nil in
// that case. The per-key hierarchy build seed is derived from the key
// itself, keeping hierarchy construction a pure function of the key. The
// server's worker counts are absent: they never change the hierarchies, and
// the round and localized stages run strictly after coarsening. The
// objective IS in the key,
// conservatively: coarsening never consults it, but separating cut and km1
// entries keeps every cached answer trivially attributable to one
// objective's request stream.
//
// The two branches hash different things on purpose. For uploads the key is
// Problem.Fingerprint() — the instance as *built*, covering the netlist, k,
// tolerance-derived balance and every constraint mask however the request
// expressed it — so a "hypergraph" + "fixed" upload and an "hgr" + .fix
// upload of the same instance collapse to one entry. For presets the key
// hashes the request fields directly (name, scale, constraint specs), which
// is computable without the netlist; it cannot use Problem.Fingerprint
// without forfeiting exactly that generation-skipping property.
func (r Request) cacheKey(prob *partition.Problem) string {
	obj, _ := fm.ParseObjective(r.Objective)
	f := hypergraph.NewFingerprint().
		Word(uint64(r.Hierarchies)).
		Word(uint64(obj)).
		Word(multilevel.CoarseningFingerprint())
	if r.Preset != nil {
		f = f.Word(uint64(r.K)).
			Word(uint64(int64(r.Tolerance * 1e9))).
			Word(uint64(int64(r.FixFraction * 1e9))).
			Word(r.FixSeed)
		// One vertex word and one mask word per entry, so entries cannot
		// run into each other.
		for _, fx := range r.Fixed {
			f = f.Word(uint64(fx.Vertex)).Word(uint64(fx.mask()))
		}
		return fmt.Sprintf("preset:%s:%g:%016x", r.Preset.Name, r.Preset.Scale, f.Sum())
	}
	return fmt.Sprintf("upload:%016x", f.Word(prob.Fingerprint()).Sum())
}

// buildProblem materializes the partitioning instance a request describes.
// cfg supplies the size limits the .hgr parser enforces against declared
// header counts (JSON uploads hit the same limits in validate, where the
// counts are directly visible).
func buildProblem(r Request, cfg Config) (*partition.Problem, string, error) {
	if r.HGR != nil {
		return buildHGRUpload(r, cfg)
	}
	var h *hypergraph.Hypergraph
	var name string
	switch {
	case r.Preset != nil:
		pr, err := gen.PresetByName(r.Preset.Name)
		if err != nil {
			return nil, "", err
		}
		nl, err := gen.Generate(pr.Params.Scaled(r.Preset.Scale))
		if err != nil {
			return nil, "", err
		}
		h = nl.H
		name = fmt.Sprintf("%s@%g", pr.Name, r.Preset.Scale)
	default:
		built, err := buildUpload(r.Hypergraph)
		if err != nil {
			return nil, "", err
		}
		h = built
		name = fmt.Sprintf("upload:%016x", h.Fingerprint())
	}
	p := partition.NewFree(h, r.K, r.Tolerance)
	if err := applyConstraints(p, r); err != nil {
		return nil, "", err
	}
	if err := p.Validate(); err != nil {
		return nil, "", err
	}
	return p, name, nil
}

// buildHGRUpload materializes an "hgr" upload: the .hgr netlist and optional
// .fix constraints parse under the server's size limits (oversized
// declarations surface as *hgr.LimitError, which the handler maps to 413
// like any other too-large upload), then the request's own "fixed" list and
// fix_fraction apply on top exactly as for JSON uploads.
func buildHGRUpload(r Request, cfg Config) (*partition.Problem, string, error) {
	lim := hgr.Limits{MaxVertices: cfg.MaxVertices, MaxNets: cfg.MaxNets}
	var fixR io.Reader
	if r.HGR.Fix != "" {
		fixR = strings.NewReader(r.HGR.Fix)
	}
	p, err := hgr.ReadProblemLimits(strings.NewReader(r.HGR.HGR), fixR, r.K, r.Tolerance, lim)
	if err != nil {
		return nil, "", err
	}
	if err := applyConstraints(p, r); err != nil {
		return nil, "", err
	}
	if err := p.Validate(); err != nil {
		return nil, "", err
	}
	return p, fmt.Sprintf("hgr:%016x", p.H.Fingerprint()), nil
}

// buildUpload assembles an uploaded netlist into a Hypergraph.
func buildUpload(spec *HypergraphSpec) (*hypergraph.Hypergraph, error) {
	nv := len(spec.Areas)
	for ri, res := range spec.ExtraResources {
		if len(res) != nv {
			return nil, fmt.Errorf("extra resource %d has %d weights for %d vertices", ri, len(res), nv)
		}
	}
	if spec.NetWeights != nil && len(spec.NetWeights) != len(spec.Nets) {
		return nil, fmt.Errorf("%d net weights for %d nets", len(spec.NetWeights), len(spec.Nets))
	}
	b := hypergraph.NewBuilder(1 + len(spec.ExtraResources))
	b.DedupPins = true
	for v := 0; v < nv; v++ {
		weights := make([]int64, 1+len(spec.ExtraResources))
		weights[0] = spec.Areas[v]
		for ri, res := range spec.ExtraResources {
			weights[1+ri] = res[v]
		}
		b.AddVertex(weights...)
	}
	for _, v := range spec.Pads {
		if v < 0 || v >= nv {
			return nil, fmt.Errorf("pad index %d outside [0, %d)", v, nv)
		}
		b.SetPad(v, true)
	}
	for ei, pins := range spec.Nets {
		for _, v := range pins {
			if v < 0 || v >= nv {
				return nil, fmt.Errorf("net %d pin %d outside [0, %d)", ei, v, nv)
			}
		}
		w := int64(1)
		if spec.NetWeights != nil {
			w = spec.NetWeights[ei]
		}
		b.AddWeightedNet(w, pins...)
	}
	h, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("hypergraph: %w", err)
	}
	return h, nil
}

// applyConstraints installs the request's fixed-vertex masks: the explicit
// list first, then the deterministic fix_fraction sample over the still-free
// vertices (seeded shuffle, parts assigned round-robin so the fixed set
// stays balanced, mirroring the paper's rand regime).
func applyConstraints(p *partition.Problem, r Request) error {
	nv := p.H.NumVertices()
	for _, fx := range r.Fixed {
		if fx.Vertex < 0 || fx.Vertex >= nv {
			return fmt.Errorf("fixed vertex %d outside [0, %d)", fx.Vertex, nv)
		}
		p.Restrict(fx.Vertex, fx.mask())
	}
	partition.ApplyFixFraction(p, r.FixFraction, r.FixSeed)
	return nil
}
