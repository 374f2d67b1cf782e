package fleet

import (
	"bytes"
	"reflect"
	"testing"
)

// The multi-HP fleet extension is pinned from both sides: HPsPerNode 1
// must reproduce the legacy single-HP cluster byte-for-byte, and
// HPsPerNode > 1 must run the grouped controller on every node with
// coherent heartbeats.

func multiHPFleetConfig(hpsPerNode int) Config {
	return Config{
		Nodes:          2,
		HorizonPeriods: 12,
		HPsPerNode:     hpsPerNode,
		Arrivals:       ArrivalConfig{Seed: 5, RatePerPeriod: 2, MeanDurationPeriods: 6},
	}
}

// TestHPsPerNodeDefaultByteIdentical: setting HPsPerNode to its default
// explicitly changes nothing — trace bytes and summary are identical to
// the zero-value config. This is the compatibility contract that lets
// every existing fleet golden stand.
func TestHPsPerNodeDefaultByteIdentical(t *testing.T) {
	run := func(hpsPerNode int) (string, Result) {
		var buf bytes.Buffer
		cfg := multiHPFleetConfig(hpsPerNode)
		cfg.Trace = &buf
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), res
	}
	implicitTrace, implicitRes := run(0)
	explicitTrace, explicitRes := run(1)
	if implicitTrace != explicitTrace {
		t.Fatal("HPsPerNode=1 trace differs from the legacy default")
	}
	if !reflect.DeepEqual(implicitRes, explicitRes) {
		t.Fatalf("HPsPerNode=1 result differs: %+v vs %+v", explicitRes, implicitRes)
	}
}

// TestMultiHPFleetRuns: three HPs per node under the grouped controller,
// BE jobs still placed on the remaining cores, heartbeats reporting the
// group structure.
func TestMultiHPFleetRuns(t *testing.T) {
	var buf bytes.Buffer
	cfg := multiHPFleetConfig(3)
	cfg.Trace = &buf
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FleetEFU <= 0 {
		t.Fatalf("fleet EFU %g", res.FleetEFU)
	}
	if res.Placements == 0 {
		t.Fatal("no BE placements on multi-HP nodes")
	}
	hdr, recs, err := ReadClusterTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.HPsPerNode != 3 {
		t.Fatalf("header HPsPerNode = %d, want 3", hdr.HPsPerNode)
	}
	for _, rec := range recs {
		for _, hb := range rec.Nodes {
			if hb.HPGroups < 1 {
				t.Fatalf("period %d node %d reports %d HP groups", rec.Period, hb.Node, hb.HPGroups)
			}
			if hb.HPNorm <= 0 || hb.HPNorm > 1.5 {
				t.Fatalf("period %d node %d worst HP norm %g", rec.Period, hb.Node, hb.HPNorm)
			}
			if hb.BECount > c.cfg.Machine.Cores-3 {
				t.Fatalf("node %d runs %d BEs with only %d free cores", hb.Node, hb.BECount, c.cfg.Machine.Cores-3)
			}
		}
	}
	// Each node's free-core accounting must reflect the extra HPs.
	for _, n := range c.nodes {
		if free := n.FreeCores(); free != c.cfg.Machine.Cores-3-n.BECount() {
			t.Fatalf("node %d free cores %d with %d BEs", n.ID(), free, n.BECount())
		}
	}
}

// TestMultiHPRequiresDICER: the grouped controller is the only policy
// that can run several HPs; UM/CT nodes must refuse.
func TestMultiHPRequiresDICER(t *testing.T) {
	cfg := multiHPFleetConfig(2)
	cfg.Policy = "CT"
	if _, err := New(cfg); err == nil {
		t.Fatal("CT policy accepted on a multi-HP node")
	}
}

// TestHeadroomGroupPressurePenalty: all else equal, the headroom
// scheduler avoids the node whose HP groups are overcommitted.
func TestHeadroomGroupPressurePenalty(t *testing.T) {
	c, err := New(multiHPFleetConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{Profile: c.nodes[0].cfg.HPs[0]}
	calm := c.nodes[0].view(0)
	calm.ID = 1
	pressured := calm
	pressured.ID = 0
	pressured.HPGroupPressure = 0.8

	idx, ok := (&HeadroomScheduler{}).Pick(job, []NodeView{pressured, calm})
	if !ok {
		t.Fatal("no node picked")
	}
	if idx != 1 {
		t.Fatalf("scheduler picked the pressured node (idx %d)", idx)
	}
	// Zero pressure ties break to the lower ID, proving the penalty (not
	// ordering) decided above.
	pressured.HPGroupPressure = 0
	idx, _ = (&HeadroomScheduler{}).Pick(job, []NodeView{pressured, calm})
	if idx != 0 {
		t.Fatalf("tie-break sanity: picked %d, want 0", idx)
	}
}
