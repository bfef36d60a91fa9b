package workload

import (
	"testing"
	"time"

	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

func cfg(seed int64) Config {
	return Config{
		Seed:   seed,
		Videos: media.StandardCorpus(42),
		Sites:  []string{"a", "b", "c"},
	}
}

// tierOf recovers the index of the QoP tier r was drawn from by its
// translated requirement, which no other tier shares.
func tierOf(t *testing.T, g *Generator, r Request) int {
	t.Helper()
	tier := -1
	for i, q := range g.tiers {
		if g.profile.Translate(q).String() == r.Req.String() {
			if tier >= 0 {
				t.Fatalf("tiers %d and %d translate alike: %v", tier, i, r.Req)
			}
			tier = i
		}
	}
	if tier < 0 {
		t.Fatalf("requirement %v matches no tier", r.Req)
	}
	return tier
}

func TestTiersCoverLadder(t *testing.T) {
	tiers := Tiers()
	if len(tiers) != 4 {
		t.Fatalf("tiers = %d, want one per replica class", len(tiers))
	}
}

func TestArrivalsIncreasingExponential(t *testing.T) {
	g := New(cfg(1))
	var last simtime.Time
	var sum simtime.Time
	const n = 20000
	for i := 0; i < n; i++ {
		r := g.Next()
		if r.At <= last {
			t.Fatal("arrival times not strictly increasing")
		}
		sum += r.At - last
		last = r.At
	}
	mean := sum / n
	if mean < 950*time.Millisecond || mean > 1050*time.Millisecond {
		t.Fatalf("mean inter-arrival = %v, want ~1s", mean)
	}
}

func TestUniformVideoAccess(t *testing.T) {
	g := New(cfg(2))
	counts := map[media.VideoID]int{}
	for i := 0; i < 15000; i++ {
		counts[g.Next().Video]++
	}
	for id, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("video %v drawn %d times, want ~1000 (uniform)", id, c)
		}
	}
}

func TestUniformTiersAndSites(t *testing.T) {
	g := New(cfg(3))
	tiers := map[int]int{}
	sites := map[string]int{}
	for i := 0; i < 8000; i++ {
		r := g.Next()
		tiers[tierOf(t, g, r)]++
		sites[r.Site]++
	}
	for tier, c := range tiers {
		if c < 1700 || c > 2300 {
			t.Fatalf("tier %d drawn %d times, want ~2000", tier, c)
		}
	}
	for s, c := range sites {
		if c < 2300 || c > 3000 {
			t.Fatalf("site %s drawn %d times, want ~2667", s, c)
		}
	}
}

func TestRequirementsMatchTiers(t *testing.T) {
	g := New(cfg(4))
	for i := 0; i < 100; i++ {
		r := g.Next()
		switch tierOf(t, g, r) {
		case 0:
			if r.Req.MinResolution != qos.ResDVD {
				t.Fatalf("tier 0 req = %v", r.Req)
			}
		case 3:
			if r.Req.MinResolution.W != 0 {
				t.Fatalf("tier 3 should be unconstrained on min resolution: %v", r.Req)
			}
		}
	}
}

func TestDeterministicStreams(t *testing.T) {
	same := func(x, y Request) bool {
		return x.At == y.At && x.Site == y.Site && x.Video == y.Video && x.Req.String() == y.Req.String()
	}
	a, b := New(cfg(7)), New(cfg(7))
	for i := 0; i < 100; i++ {
		ra, rb := a.Next(), b.Next()
		if !same(ra, rb) {
			t.Fatalf("request %d differs: %+v vs %+v", i, ra, rb)
		}
	}
	c := New(cfg(8))
	diff := false
	for i := 0; i < 100; i++ {
		if !same(a.Next(), c.Next()) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestZipfSkewsAccess(t *testing.T) {
	c := cfg(5)
	c.ZipfSkew = 1.2
	g := New(c)
	counts := map[media.VideoID]int{}
	for i := 0; i < 10000; i++ {
		counts[g.Next().Video]++
	}
	if counts[1] <= counts[15] {
		t.Fatalf("zipf not skewed: v001=%d v015=%d", counts[1], counts[15])
	}
}

func TestDrive(t *testing.T) {
	sim := simtime.NewSimulator()
	g := New(cfg(6))
	var served []Request
	n := g.Drive(sim, 30*time.Second, func(r Request) { served = append(served, r) })
	sim.Run()
	if len(served) != n {
		t.Fatalf("served %d != scheduled %d", len(served), n)
	}
	if n < 15 || n > 50 {
		t.Fatalf("30s at 1/s produced %d arrivals", n)
	}
	for i := 1; i < len(served); i++ {
		if served[i].At < served[i-1].At {
			t.Fatal("served out of order")
		}
	}
}

func TestNewPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty config accepted")
		}
	}()
	New(Config{})
}
