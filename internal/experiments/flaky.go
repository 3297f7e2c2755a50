package experiments

// flaky-edge: the webrepl workload on a ring whose core links replay the
// bundled 802.11 contention trace while one ring link fails mid-run and
// later recovers, with route reconvergence. This is the link-dynamics
// determinism scenario: the trace makes every pipe's parameters a function
// of virtual time, the failure exercises drain/blackhole/reroute, and the
// wifi trace's latency dips force shard lookahead to come from the
// profile's floor rather than the initial link latency — all of which must
// agree byte-for-byte across the sequential, in-process parallel, and
// federated runtimes.

import (
	"fmt"
	"math/rand"

	"modelnet"
	"modelnet/internal/assign"
	"modelnet/internal/dynamics"
	"modelnet/internal/vtime"
)

// ScenarioFlakyEdge is the registered federation scenario name.
const ScenarioFlakyEdge = "flaky-edge"

// FlakyEdgeSpec parameterizes the flaky-edge workload: the webrepl-ring
// deployment plus the dynamics riding on it. It doubles as the federation
// scenario's JSON params; the dynamics spec itself is derived (Dynamics)
// and shipped separately in the setup frame, so the workers never rebuild
// it from JSON.
type FlakyEdgeSpec struct {
	Web WebReplRingSpec `json:"web"`
	// Trace names the bundled capacity trace ("lte", "satellite", "wifi")
	// replayed on every ring link, with per-link latency jitter so
	// independent links never step to identical delays.
	Trace string `json:"trace"`
	// FailLink is the ring link that goes down at FailSec and back up at
	// RecoverSec; routes reconverge RerouteDelaySec after each transition.
	FailLink        int     `json:"fail_link"`
	FailSec         float64 `json:"fail_sec"`
	RecoverSec      float64 `json:"recover_sec"`
	RerouteDelaySec float64 `json:"reroute_delay_sec"`
}

// Topology and RunFor delegate to the underlying web deployment.
func (c FlakyEdgeSpec) Topology() *modelnet.Graph { return c.Web.Topology() }
func (c FlakyEdgeSpec) RunFor() modelnet.Duration { return c.Web.RunFor() }
func (c FlakyEdgeSpec) ringLinks() int            { return 2 * c.Web.Routers }
func (c FlakyEdgeSpec) failAt() vtime.Duration    { return vtime.DurationOf(c.FailSec) }
func (c FlakyEdgeSpec) recoverAt() vtime.Duration { return vtime.DurationOf(c.RecoverSec) }

// Dynamics derives the spec's link-dynamics description: one looping trace
// profile per ring link (latencies scaled by a seeded per-link jitter, as
// the topology's initial latencies are) plus the fail/recover profile on
// FailLink with reroute enabled. The same value feeds every execution mode.
func (c FlakyEdgeSpec) Dynamics() (*dynamics.Spec, error) {
	text, ok := dynamics.BundledTrace(c.Trace)
	if !ok {
		return nil, fmt.Errorf("flaky-edge: unknown bundled trace %q", c.Trace)
	}
	if c.FailLink < 0 || c.FailLink >= c.ringLinks() {
		return nil, fmt.Errorf("flaky-edge: fail link %d outside the %d ring links", c.FailLink, c.ringLinks())
	}
	if c.RecoverSec <= c.FailSec {
		return nil, fmt.Errorf("flaky-edge: recovery at %vs not after failure at %vs", c.RecoverSec, c.FailSec)
	}
	spec := &dynamics.Spec{
		Reroute:      true,
		RerouteDelay: vtime.DurationOf(c.RerouteDelaySec),
	}
	jitRng := rand.New(rand.NewSource(c.Web.Seed ^ 0x7f1a6e))
	for l := 0; l < c.ringLinks(); l++ {
		p, err := dynamics.TraceProfile(l, text)
		if err != nil {
			return nil, err
		}
		jitter := 0.8 + 0.4*jitRng.Float64()
		for i := range p.Steps {
			if p.Steps[i].Latency >= 0 {
				p.Steps[i].Latency = vtime.Duration(float64(p.Steps[i].Latency) * jitter)
			}
		}
		spec.Profiles = append(spec.Profiles, p)
	}
	down := dynamics.At(c.failAt())
	down.Down = true
	up := dynamics.At(c.recoverAt())
	up.Up = true
	spec.Profiles = append(spec.Profiles, dynamics.Profile{
		Link:  c.FailLink,
		Steps: []dynamics.Step{down, up},
	})
	return spec, nil
}

// CutFailLink picks a ring link that crosses the k-core partition the
// runtimes would compute for this spec's topology and seed: a link whose
// owning cluster differs from its destination router's, so its failure (and
// the packets blackholed at it) genuinely involves the shard cut. With one
// core there is no cut; the first ring link stands in.
func (c FlakyEdgeSpec) CutFailLink(k int) (int, error) {
	g := c.Topology()
	if k < 2 {
		return 0, nil
	}
	asn, err := assign.KClusters(g, k, c.Web.Seed)
	if err != nil {
		return 0, err
	}
	// A node's cluster is the owner of any link sourced at it (KClusters
	// owns each directed link by its source node's cluster).
	nodeOwner := make([]int, g.NumNodes())
	for i := range nodeOwner {
		nodeOwner[i] = -1
	}
	for _, l := range g.Links {
		if nodeOwner[l.Src] == -1 {
			nodeOwner[l.Src] = asn.Owner[l.ID]
		}
	}
	for _, l := range g.Links[:c.ringLinks()] {
		if asn.Owner[l.ID] != nodeOwner[l.Dst] {
			return int(l.ID), nil
		}
	}
	return 0, fmt.Errorf("flaky-edge: no ring link crosses the %d-core partition", k)
}
