package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
)

// randomRequirement is a quick.Generator producing structurally valid but
// adversarial requirements: arbitrary band combinations, including
// unsatisfiable ones.
type randomRequirement qos.Requirement

func (randomRequirement) Generate(r *rand.Rand, _ int) reflect.Value {
	resolutions := []qos.Resolution{{}, qos.ResQCIF, qos.ResVCD, qos.ResCIF, qos.ResSD, qos.ResDVD}
	req := qos.Requirement{
		MinResolution: resolutions[r.Intn(len(resolutions))],
		MaxResolution: resolutions[r.Intn(len(resolutions))],
		MinColorDepth: []int{0, 8, 16, 24}[r.Intn(4)],
		MinFrameRate:  []float64{0, 8, 15, 20, 23, 30}[r.Intn(6)],
		MaxFrameRate:  []float64{0, 10, 24, 30}[r.Intn(4)],
		Security:      qos.SecurityLevel(r.Intn(3)),
	}
	return reflect.ValueOf(randomRequirement(req))
}

func propCluster(t *testing.T) (*Cluster, *Generator) {
	t.Helper()
	sim := simtime.NewSimulator()
	c := TestbedCluster(sim)
	if _, err := c.LoadCorpus(media.StandardCorpus(42), replication.DefaultPolicy()); err != nil {
		t.Fatal(err)
	}
	return c, NewGenerator(c.Dir, DefaultGeneratorConfig(c.Capacity()))
}

// TestPropertyPlansSatisfyRequirement: every plan the generator emits for
// any requirement delivers a quality satisfying that requirement, with
// internally consistent demands.
func TestPropertyPlansSatisfyRequirement(t *testing.T) {
	c, gen := propCluster(t)
	videos := c.Engine.All()
	i := 0
	if err := quick.Check(func(rr randomRequirement) bool {
		req := qos.Requirement(rr)
		v := videos[i%len(videos)]
		i++
		for _, p := range gen.GenerateAll("srv-a", v, req) {
			if !req.SatisfiedBy(p.Delivered) {
				t.Logf("plan %s delivers %v violating %v", p, p.Delivered, req)
				return false
			}
			deliver := p.Demand(StageDeliver)
			if deliver[qos.ResNetBandwidth] <= 0 || deliver[qos.ResCPU] <= 0 {
				t.Logf("plan %s has degenerate demand %v", p, deliver)
				return false
			}
			for _, x := range deliver {
				if x < 0 {
					return false
				}
			}
			if p.Remote() != (p.Demand(StageSource) != (qos.ResourceVector{})) {
				t.Logf("plan %s remote/source mismatch", p)
				return false
			}
			if req.Security == qos.SecurityNone && p.Encrypt != nil {
				return false
			}
			if req.Security != qos.SecurityNone && (p.Encrypt == nil || p.Encrypt.Level < req.Security) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyGenerateDeterministic: the same inputs produce the same plan
// sequence.
func TestPropertyGenerateDeterministic(t *testing.T) {
	c, gen := propCluster(t)
	v := c.Engine.All()[0]
	req := qos.Requirement{MinColorDepth: 8}
	a := gen.GenerateAll("srv-b", v, req)
	b := gen.GenerateAll("srv-b", v, req)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("plan %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestPropertyLRBOrderMonotone: LRB's output is sorted by non-decreasing
// Eq. 1 cost under the usage at ranking time.
func TestPropertyLRBOrderMonotone(t *testing.T) {
	c, gen := propCluster(t)
	m := NewManager(c, LRB{})
	// Load the cluster unevenly so costs differ meaningfully.
	for i := 0; i < 10; i++ {
		m.Service("srv-a", media.VideoID(1+i%15), qos.Requirement{MinResolution: qos.ResDVD, MinFrameRate: 23}, ServiceOptions{})
	}
	var lrb LRB
	if err := quick.Check(func(rr randomRequirement) bool {
		req := qos.Requirement(rr)
		plans := gen.GenerateAll("srv-a", c.Engine.All()[2], req)
		ranked := lrb.Order(plans, c.SiteUsage())
		for i := 1; i < len(ranked); i++ {
			if lrb.Cost(ranked[i-1], c.SiteUsage()) > lrb.Cost(ranked[i], c.SiteUsage())+1e-12 {
				return false
			}
		}
		return len(ranked) == len(plans)
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyServiceConservesResources: any admitted delivery, once
// cancelled, returns the cluster to its prior usage.
func TestPropertyServiceConservesResources(t *testing.T) {
	c, _ := propCluster(t)
	m := NewManager(c, LRB{})
	videos := c.Engine.All()
	i := 0
	snapshot := func() [3]qos.ResourceVector {
		var out [3]qos.ResourceVector
		for j, s := range c.Sites() {
			out[j], _, _ = c.Usage(s)
		}
		return out
	}
	approxEq := func(a, b [3]qos.ResourceVector) bool {
		for j := range a {
			for k := range a[j] {
				d := a[j][k] - b[j][k]
				if d < -1e-6 || d > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func(rr randomRequirement) bool {
		req := qos.Requirement(rr)
		v := videos[i%len(videos)]
		i++
		before := snapshot()
		d, err := m.Service("srv-c", v.ID, req, ServiceOptions{})
		if err != nil {
			// Rejection must not perturb usage.
			return approxEq(before, snapshot())
		}
		d.Cancel()
		return approxEq(before, snapshot())
	}, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
