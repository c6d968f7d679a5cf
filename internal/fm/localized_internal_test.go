package fm

import (
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// locStamps returns every generation-stamped array of ls by field name. It
// fails the test when locScratch has a stamped field ([]int32 named *Gen)
// the map does not list, so a new stamped array cannot escape the
// stamp-wrap test below.
func locStamps(t *testing.T, ls *locScratch) map[string]*[]int32 {
	t.Helper()
	stamps := map[string]*[]int32{"acqGen": &ls.acqGen, "netGen": &ls.netGen}
	typ := reflect.TypeOf(*ls)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if strings.HasSuffix(f.Name, "Gen") && f.Type == reflect.TypeOf([]int32(nil)) && stamps[f.Name] == nil {
			t.Fatalf("locScratch.%s is a stamped array the wrap test does not cover", f.Name)
		}
	}
	return stamps
}

// stampSlices lists the stamped arrays of ls.
func stampSlices(t *testing.T, ls *locScratch) [][]int32 {
	var out [][]int32
	for _, a := range locStamps(t, ls) {
		out = append(out, *a)
	}
	return out
}

// runLocalizedOn runs the localized rounds on the given search scratches.
func runLocalizedOn(p *partition.Problem, initial partition.Assignment, salt uint64, scratches []*locScratch) *LocalizedResult {
	l := mustLevel(p, initial)
	res := &LocalizedResult{Movable: l.m.nMovable}
	r := newLocRun(l, scratches, len(scratches), salt, res)
	for round := 0; ; round++ {
		if commits, _ := r.round(round); commits == 0 {
			break
		}
	}
	res.Assignment = l.Assignment()
	return res
}

// TestLocalizedStampWrap drives nextGen's MaxInt32 reset. Scratches whose
// generation sits one below MaxInt32, whose stamped arrays all hold 1 — the
// first generation after the wrap, so any array the reset missed would read
// as live — and whose stamp-guarded payload holds garbage must produce
// exactly the output of fresh scratches.
func TestLocalizedStampWrap(t *testing.T) {
	ls := &locScratch{}
	ls.prepare(16, 16, 2, 1)
	for _, a := range locStamps(t, ls) {
		for i := range *a {
			(*a)[i] = 1
		}
	}
	ls.gen = math.MaxInt32
	if g := ls.nextGen(); g != 1 {
		t.Fatalf("nextGen after MaxInt32 = %d, want 1", g)
	}
	for name, a := range locStamps(t, ls) {
		for i, s := range *a {
			if s != 0 {
				t.Fatalf("%s[%d] = %d after the wrap, want 0", name, i, s)
			}
		}
	}

	trials := 0
	for seed := uint64(1); trials < 12; seed++ {
		p, initial, ok := buildEngineProblem(seed, 80+int(seed%5)*30)
		if !ok {
			continue
		}
		trials++
		salt := seed * 0x9e3779b97f4a7c15
		workers := 1 + trials%2
		fresh := make([]*locScratch, workers)
		worn := make([]*locScratch, workers)
		for w := range fresh {
			fresh[w] = &locScratch{}
			worn[w] = &locScratch{}
			worn[w].prepare(p.H.NumVertices(), p.H.NumNets(), p.K, p.H.NumResources())
			for _, a := range append(stampSlices(t, worn[w]), worn[w].phiDelta, worn[w].slotOf) {
				for i := range a {
					a[i] = 1
				}
			}
			worn[w].gen = math.MaxInt32 - 1
		}
		want := runLocalizedOn(p, initial, salt, fresh)
		got := runLocalizedOn(p, initial, salt, worn)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (workers=%d): wrapped scratches diverge: got %+v, want %+v",
				trials, workers, *got, *want)
		}
		wrapped := false
		for _, ls := range worn {
			wrapped = wrapped || ls.gen < math.MaxInt32-1
		}
		if want.Searches >= 2*workers && !wrapped {
			t.Fatalf("trial %d: %d searches never wrapped a generation", trials, want.Searches)
		}
	}
}

// boundaryProblem draws a tightly balanced fixed-vertex problem whose
// covered nets — k fixed pins, one per part, plus movable pins — span
// several parts while contributing to no gain, so they must never make a
// vertex a seed.
func boundaryProblem(rng *rand.Rand) (*partition.Problem, partition.Assignment, bool) {
	nv := 200 + rng.IntN(300)
	k := 2 + rng.IntN(3)
	nr := 1 + rng.IntN(2)
	b := hypergraph.NewBuilder(nr)
	for v := 0; v < nv; v++ {
		w := make([]int64, nr)
		for r := range w {
			w[r] = int64(1 + rng.IntN(4))
		}
		b.AddVertex(w...)
	}
	// Vertices [0, 4k) are the terminals: vertex i is fixed in part i%k.
	nt := 4 * k
	for e := 0; e < 2*nv; e++ {
		b.AddWeightedNet(int64(1+rng.IntN(3)), rng.Perm(nv)[:2+rng.IntN(6)]...)
	}
	for e := 0; e < nv/10; e++ {
		pins := rng.Perm(nv - nt)[:2+rng.IntN(3)]
		for i := range pins {
			pins[i] += nt
		}
		for q := 0; q < k; q++ {
			pins = append(pins, q+k*rng.IntN(4))
		}
		b.AddNet(pins...)
	}
	h, err := b.Build()
	if err != nil {
		return nil, nil, false
	}
	p := partition.NewFree(h, k, 0.02+0.06*rng.Float64())
	for i := 0; i < nt; i++ {
		p.Fix(i, i%k)
	}
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		return nil, nil, false
	}
	return p, initial, true
}

// scanSeeds is the boundary by definition: the movable pins of every net
// that spans more than one part and is not covered by immovable pins in
// every part, ascending.
func scanSeeds(m *cutModel) []int32 {
	mark := make([]bool, m.h.NumVertices())
	for en := 0; en < m.h.NumNets(); en++ {
		if int(m.fixedCover[en]) == m.k {
			continue
		}
		span := 0
		for _, c := range m.pinCount[en*m.k : (en+1)*m.k] {
			if c > 0 {
				span++
			}
		}
		if span < 2 {
			continue
		}
		for _, u := range m.h.Pins(en) {
			mark[u] = mark[u] || m.movable[u]
		}
	}
	var seeds []int32
	for v, in := range mark {
		if in {
			seeds = append(seeds, int32(v))
		}
	}
	return seeds
}

// TestLocalizedBoundaryMatchesScan checks the incrementally kept boundary
// against a from-scratch scan of every net, at the start of the run and
// after every localized round, on instances with covered cut nets and tight
// balance; the trials must include prefixes the commit recheck rolled back
// and covered nets in the cut.
func TestLocalizedBoundaryMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xb0da, 1))
	rolledBack, covered := 0, 0
	for trial := 0; trial < 30; trial++ {
		p, initial, ok := boundaryProblem(rng)
		if !ok {
			continue
		}
		l := mustLevel(p, initial)
		m := &l.m
		for en := 0; en < m.h.NumNets(); en++ {
			if int(m.fixedCover[en]) == m.k {
				covered++
			}
		}
		workers := 1 + trial%3
		scratches := make([]*locScratch, workers)
		for i := range scratches {
			scratches[i] = &locScratch{}
		}
		r := newLocRun(l, scratches, workers, rng.Uint64(), &LocalizedResult{})
		check := func(round int) {
			t.Helper()
			if got, want := r.st.seeds, scanSeeds(m); !reflect.DeepEqual(append([]int32{}, got...), want) {
				t.Fatalf("trial %d (k=%d, nv=%d) after round %d: seeds %v, scan %v",
					trial, p.K, p.H.NumVertices(), round, got, want)
			}
			for _, u := range r.st.seeds {
				if !r.st.seeded[u] {
					t.Fatalf("trial %d after round %d: seed %d not marked", trial, round, u)
				}
			}
		}
		check(-1)
		for round := 0; ; round++ {
			commits, rb := r.round(round)
			rolledBack += rb
			if commits == 0 {
				break
			}
			check(round)
		}
	}
	t.Logf("%d rolled-back prefixes, %d covered nets", rolledBack, covered)
	if rolledBack == 0 {
		t.Fatal("no trial rolled back a prefix")
	}
	if covered == 0 {
		t.Fatal("no trial had a net covered by immovable pins")
	}
}
