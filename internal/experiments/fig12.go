package experiments

import (
	"io"
	"math/rand"

	"modelnet"
	"modelnet/internal/apps/acdc"
	"modelnet/internal/netstack"
	"modelnet/internal/topology"
	"modelnet/internal/traffic"
	"modelnet/internal/vtime"
)

// Fig12 reproduces Figure 12 (§5.3): ACDC running on a 600-node
// transit-stub topology with 120 overlay members. Nodes join at random
// points, self-organize to meet a 1500 ms delay target, then minimize
// cost. From t=500s to t=1500s, ModelNet increases the delay of 25% of
// randomly chosen links by 0–25% every 25 seconds; the overlay adapts,
// sometimes sacrificing cost, and re-optimizes after conditions subside.
// Reported: overlay cost relative to an offline MST (left axis) and
// worst-case overlay delay vs the offline shortest-path-tree delay.

// Fig12Config parameterizes the run.
type Fig12Config struct {
	Members      int
	TargetDelay  float64 // seconds
	Duration     modelnet.Duration
	PerturbFrom  modelnet.Duration
	PerturbTo    modelnet.Duration
	PerturbEvery modelnet.Duration
	SampleEvery  modelnet.Duration
	Seed         int64
	// Topology shape (defaults approximate the paper's 600-node GT-ITM).
	TransitDomains, TransitPerDomain, StubsPerTransit, RoutersPerStub int
}

// DefaultFig12 is the paper's timeline.
func DefaultFig12() Fig12Config {
	return Fig12Config{
		Members:        120,
		TargetDelay:    1.5,
		Duration:       modelnet.Seconds(3000),
		PerturbFrom:    modelnet.Seconds(500),
		PerturbTo:      modelnet.Seconds(1500),
		PerturbEvery:   modelnet.Seconds(25),
		SampleEvery:    modelnet.Seconds(50),
		Seed:           7,
		TransitDomains: 3, TransitPerDomain: 4, StubsPerTransit: 4, RoutersPerStub: 12,
	}
}

// Fig12Row is one timeline sample.
type Fig12Row struct {
	T         float64 // seconds
	CostRatio float64 // overlay cost / MST cost
	MaxDelay  float64 // worst root→member delay, seconds
	Switches  uint64  // cumulative parent switches at this sample
}

// Fig12Result carries the timeline plus the offline references.
type Fig12Result struct {
	Rows     []Fig12Row
	SPTDelay float64 // offline shortest-path-tree max delay
	MSTCost  float64
	// Adaptation counters and final per-node state, for diagnostics.
	Switches       uint64
	LoopRepairs    uint64
	ProbeFails     uint64
	ProbesTotal    uint64
	FinalClaims    []float64 // each node's believed tree delay at the end
	FinalCosts     []float64 // each node's parent-edge cost at the end
	FinalParents   []int
	FinalEdgeDelay []float64 // live delay of each node's parent edge
}

// RunFig12 executes the timeline.
func RunFig12(cfg Fig12Config) (*Fig12Result, error) {
	tsCfg := topology.TransitStubConfig{
		TransitDomains:   cfg.TransitDomains,
		TransitPerDomain: cfg.TransitPerDomain,
		StubsPerTransit:  cfg.StubsPerTransit,
		RoutersPerStub:   cfg.RoutersPerStub,
		ClientsPerStub:   (cfg.Members + cfg.TransitDomains*cfg.TransitPerDomain*cfg.StubsPerTransit - 1) / (cfg.TransitDomains * cfg.TransitPerDomain * cfg.StubsPerTransit),
		TransitTransit:   topology.LinkAttrs{BandwidthBps: topology.Mbps(155), LatencySec: topology.Ms(40), QueuePkts: 60},
		TransitStub:      topology.LinkAttrs{BandwidthBps: topology.Mbps(45), LatencySec: topology.Ms(15), QueuePkts: 60},
		StubStub:         topology.LinkAttrs{BandwidthBps: topology.Mbps(100), LatencySec: topology.Ms(10), QueuePkts: 60},
		ClientStub:       topology.LinkAttrs{BandwidthBps: topology.Mbps(10), LatencySec: topology.Ms(2), QueuePkts: 30},
		Seed:             cfg.Seed,
	}
	g := topology.TransitStub(tsCfg)
	// ACDC's §5.3 abstract costs per link class.
	g.JitterCosts(topology.TransitTransit, 20, 40, cfg.Seed)
	g.JitterCosts(topology.StubTransit, 10, 20, cfg.Seed+1)
	g.JitterCosts(topology.StubStub, 1, 5, cfg.Seed+2)
	g.JitterCosts(topology.ClientStub, 1, 2, cfg.Seed+3)

	em, err := modelnet.Run(g, modelnet.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if em.NumVNs() < cfg.Members {
		cfg.Members = em.NumVNs()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	memberVN := rng.Perm(em.NumVNs())[:cfg.Members]

	// Oracles over the distilled graph: static cost, live delay.
	table := em.Binding.Table
	costOf := func(a, b int) float64 {
		if a == b {
			return 0
		}
		r, ok := table.Lookup(modelnet.VN(memberVN[a]), modelnet.VN(memberVN[b]))
		if !ok {
			return 1e18
		}
		total := 0.0
		for _, pid := range r {
			total += em.Distilled.Graph.Links[pid].Attr.Cost
		}
		return total
	}
	delayOf := func(a, b int) float64 {
		if a == b {
			return 0
		}
		r, ok := table.Lookup(modelnet.VN(memberVN[a]), modelnet.VN(memberVN[b]))
		if !ok {
			return 1e18
		}
		total := 0.0
		for _, pid := range r {
			total += em.Emu.Pipe(pid).Params().Latency.Seconds()
		}
		return total
	}

	var members []netstack.Endpoint
	for _, vn := range memberVN {
		members = append(members, netstack.Endpoint{VN: modelnet.VN(vn), Port: 4500})
	}
	var nodes []*acdc.Node
	for i := range memberVN {
		h := em.NewHost(modelnet.VN(memberVN[i]))
		nd, err := acdc.NewNode(h, i, members, costOf, acdc.Config{
			TargetDelay: cfg.TargetDelay,
			Seed:        cfg.Seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		if i > 0 {
			nd.SetParent(rng.Intn(i)) // join at a random existing point
		}
		nodes = append(nodes, nd)
		nd.Start()
	}

	res := &Fig12Result{
		SPTDelay: acdc.SPTMaxDelay(cfg.Members, delayOf),
		MSTCost:  acdc.MSTCost(cfg.Members, costOf),
	}

	// Perturbation schedule.
	pert := traffic.NewPerturber(em.Emu, cfg.Seed)
	for t := cfg.PerturbFrom; t < cfg.PerturbTo; t += cfg.PerturbEvery {
		em.Sched.At(modelnet.Time(t), func() { pert.JitterLatency(0.25, 0.25) })
	}
	em.Sched.At(modelnet.Time(cfg.PerturbTo), pert.Restore)

	// Timeline sampling.
	for t := cfg.SampleEvery; t <= cfg.Duration; t += cfg.SampleEvery {
		t := t
		em.Sched.At(modelnet.Time(t), func() {
			var sw uint64
			for _, nd := range nodes {
				sw += nd.Switches
			}
			res.Rows = append(res.Rows, Fig12Row{
				T:         vtime.Duration(t).Seconds(),
				CostRatio: acdc.TreeCost(nodes, costOf) / res.MSTCost,
				MaxDelay:  acdc.TreeMaxDelay(nodes, delayOf),
				Switches:  sw,
			})
		})
	}
	em.RunUntil(modelnet.Time(cfg.Duration))
	for _, nd := range nodes {
		nd.Stop()
		res.Switches += nd.Switches
		res.LoopRepairs += nd.LoopRepairs
		res.ProbeFails += nd.ProbeFails
		res.ProbesTotal += nd.Probes
		res.FinalClaims = append(res.FinalClaims, nd.TreeDelay())
		p := nd.Parent()
		if p < 0 {
			p = 0
		}
		res.FinalCosts = append(res.FinalCosts, costOf(p, nd.ID()))
		res.FinalParents = append(res.FinalParents, p)
		res.FinalEdgeDelay = append(res.FinalEdgeDelay, delayOf(p, nd.ID()))
	}
	return res, nil
}

// PrintFig12 renders the timeline.
func PrintFig12(w io.Writer, res *Fig12Result) {
	fprintf(w, "Figure 12: ACDC cost (vs MST %.1f) and max delay (SPT %.3fs) over time\n",
		res.MSTCost, res.SPTDelay)
	fprintf(w, "%8s %10s %10s\n", "t (s)", "cost/MST", "maxDelay")
	for _, r := range res.Rows {
		fprintf(w, "%8.0f %10.2f %10.3f\n", r.T, r.CostRatio, r.MaxDelay)
	}
}
