package traffic

import (
	"math/rand"

	"modelnet/internal/emucore"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// Fault injection and dynamic network change (§4.3): pipe parameters change
// according to specified probability distributions every x seconds; for
// node or link failures the routing tables are recomputed (the paper's
// "perfect routing protocol" assumption — failover is instantaneous).

// Perturber applies random latency/bandwidth/loss perturbations, as in the
// ACDC experiment: "increase the delay on 25% of randomly chosen IP links
// by between 0-25% of the original delay every 25 seconds".
type Perturber struct {
	emu  *emucore.Emulator
	base []pipes.Params
	rng  *rand.Rand
}

// NewPerturber snapshots base parameters for later restore.
func NewPerturber(emu *emucore.Emulator, seed int64) *Perturber {
	p := &Perturber{emu: emu, rng: rand.New(rand.NewSource(seed))}
	p.base = make([]pipes.Params, emu.NumPipes())
	for i := range p.base {
		p.base[i] = emu.Pipe(pipes.ID(i)).Params()
	}
	return p
}

// JitterLatency picks fraction of pipes at random and increases each one's
// latency by a uniform factor in [0, maxIncrease] of its base latency.
// Unpicked pipes return to base.
func (p *Perturber) JitterLatency(fraction, maxIncrease float64) {
	for i := range p.base {
		params := p.base[i]
		if p.rng.Float64() < fraction {
			params.Latency += vtime.Duration(p.rng.Float64() * maxIncrease * float64(params.Latency))
		}
		p.emu.SetPipeParams(pipes.ID(i), params)
	}
}

// DegradeBandwidth multiplies fraction of pipes' bandwidth by a uniform
// factor in [minFactor, 1].
func (p *Perturber) DegradeBandwidth(fraction, minFactor float64) {
	for i := range p.base {
		params := p.base[i]
		if p.rng.Float64() < fraction {
			f := minFactor + p.rng.Float64()*(1-minFactor)
			params.BandwidthBps *= f
		}
		p.emu.SetPipeParams(pipes.ID(i), params)
	}
}

// RaiseLoss sets fraction of pipes' loss rate to a uniform value in
// [0, maxLoss] — a sudden increase in loss across backbone links.
func (p *Perturber) RaiseLoss(fraction, maxLoss float64) {
	for i := range p.base {
		params := p.base[i]
		if p.rng.Float64() < fraction {
			params.LossRate = p.rng.Float64() * maxLoss
			if params.LossRate >= 1 {
				params.LossRate = 0.999
			}
		}
		p.emu.SetPipeParams(pipes.ID(i), params)
	}
}

// Restore returns every pipe to its snapshot parameters.
func (p *Perturber) Restore() {
	for i, params := range p.base {
		p.emu.SetPipeParams(pipes.ID(i), params)
	}
}

// FailLinks removes the given links from the topology's routing and makes
// the corresponding pipes unusable (packets already routed onto them drop),
// then re-resolves the emulator's routing table with the links priced out
// (Emulator.Reroute) — modeling an instantaneously converging routing
// protocol. Routes through failed links survive only where no alternative
// exists (Infinity latency dominates any real path): the disconnection case.
func FailLinks(emu *emucore.Emulator, down map[topology.LinkID]bool) error {
	// Dead pipes: zero capacity is modeled as total loss.
	lids := make([]topology.LinkID, 0, len(down))
	for lid := range down {
		params := emu.Pipe(pipes.ID(lid)).Params()
		params.LossRate = 0.999999
		emu.SetPipeParams(pipes.ID(lid), params)
		lids = append(lids, lid)
	}
	return emu.Reroute(lids)
}

// HealLinks restores failed links' parameters from the provided base and
// re-resolves routing over the intact topology.
func HealLinks(emu *emucore.Emulator, base map[topology.LinkID]pipes.Params) error {
	for lid, params := range base {
		emu.SetPipeParams(pipes.ID(lid), params)
	}
	return emu.Reroute(nil)
}
