package fm

import (
	"math"
	"reflect"
	"strings"
	"testing"

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
	m := &cutModel{}
	m.init(p, initial, NewScratch())
	res := &LocalizedResult{Movable: m.nMovable}
	localizedRounds(m, &roundState{}, scratches, len(scratches), salt, res)
	res.Assignment = m.a.Clone()
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
