package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"modelnet"
	"modelnet/internal/netstack"
	"modelnet/internal/stats"
	"modelnet/internal/traffic"
	"modelnet/internal/vtime"
)

// Fig5 reproduces Figure 5 (§4.1): the effect of distillation on the
// bandwidth distribution of 200 TCP flows crossing a ring topology — 20
// routers at 20 Mb/s, 20 VNs each behind 2 Mb/s access links. The paper
// compares hop-by-hop emulation (matches an ns-2 simulation of the same
// ring), last-mile distillation (contention modeled only on shared
// receivers), end-to-end (everyone gets their full 2 Mb/s), and an ns-2
// reference with an over-provisioned 80 Mb/s ring (which last-mile
// approximates).

// Fig5Config parameterizes the experiment.
type Fig5Config struct {
	Routers      int
	VNsPerRouter int
	RingMbps     float64
	AccessMbps   float64
	Duration     modelnet.Duration
	Seed         int64
}

// DefaultFig5 is the paper's ring.
func DefaultFig5() Fig5Config {
	return Fig5Config{
		Routers:      20,
		VNsPerRouter: 20,
		RingMbps:     20,
		AccessMbps:   2,
		Duration:     modelnet.Seconds(20),
		Seed:         3,
	}
}

// Fig5Series is one curve: a named bandwidth CDF in Kbit/s.
type Fig5Series struct {
	Name string
	CDF  []stats.CDFPoint
	Mean float64
}

// RunFig5 runs all five configurations and returns their CDFs.
func RunFig5(cfg Fig5Config) ([]Fig5Series, error) {
	type variant struct {
		name     string
		spec     modelnet.DistillSpec
		profile  modelnet.Profile
		ringMbps float64
	}
	variants := []variant{
		{"hop-by-hop", modelnet.DistillSpec{Mode: modelnet.HopByHop}, modelnet.DefaultProfile(), cfg.RingMbps},
		{"ns2 hop-by-hop " + mbpsLabel(cfg.RingMbps), modelnet.DistillSpec{Mode: modelnet.HopByHop}, modelnet.IdealProfile(), cfg.RingMbps},
		{"ns2 hop-by-hop " + mbpsLabel(cfg.RingMbps*4), modelnet.DistillSpec{Mode: modelnet.HopByHop}, modelnet.IdealProfile(), cfg.RingMbps * 4},
		{"last-mile", modelnet.DistillSpec{Mode: modelnet.WalkIn, WalkIn: 1}, modelnet.DefaultProfile(), cfg.RingMbps},
		{"end-to-end", modelnet.DistillSpec{Mode: modelnet.EndToEnd}, modelnet.DefaultProfile(), cfg.RingMbps},
	}
	var out []Fig5Series
	for _, v := range variants {
		sample, err := runFig5Variant(cfg, v.spec, v.profile, v.ringMbps)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig5Series{Name: v.name, CDF: sample.CDFAt(20), Mean: sample.Mean()})
	}
	return out, nil
}

func mbpsLabel(m float64) string {
	return fmt.Sprintf("%gMb ring", m)
}

func runFig5Variant(cfg Fig5Config, spec modelnet.DistillSpec, prof modelnet.Profile, ringMbps float64) (*stats.Sample, error) {
	ring := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(ringMbps), LatencySec: modelnet.Ms(5), QueuePkts: 30}
	access := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(cfg.AccessMbps), LatencySec: modelnet.Ms(1), QueuePkts: 20}
	g := modelnet.Ring(cfg.Routers, cfg.VNsPerRouter, ring, access)
	em, err := modelnet.Run(g, modelnet.Options{Distill: spec, Profile: &prof, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	nVN := em.NumVNs()
	half := nVN / 2
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Generators are the first half (in VN order), receivers the second;
	// each generator streams to a random receiver, as in the paper.
	var sinks []*traffic.Sink
	for r := 0; r < half; r++ {
		h := em.NewHost(modelnet.VN(half + r))
		s, err := traffic.NewSink(h, 80)
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, s)
	}
	for gidx := 0; gidx < half; gidx++ {
		src := em.NewHost(modelnet.VN(gidx))
		dst := modelnet.VN(half + rng.Intn(half))
		start := modelnet.Time(int64(gidx) * int64(500*vtime.Millisecond) / int64(half))
		em.Sched.At(start, func() {
			traffic.StartBulk(src, netstack.Endpoint{VN: dst, Port: 80}, traffic.Unbounded)
		})
	}
	em.RunFor(cfg.Duration)
	// Per-flow achieved bandwidth in Kbit/s.
	sample := &stats.Sample{}
	for _, s := range sinks {
		for _, f := range s.Flows {
			sample.Add(f.Throughput() / 1e3)
		}
	}
	return sample, nil
}

// PrintFig5 renders the CDF series.
func PrintFig5(w io.Writer, series []Fig5Series) {
	fprintf(w, "Figure 5: flow bandwidth CDFs under distillation (Kbit/s)\n")
	for _, s := range series {
		fprintf(w, "%-28s mean=%8.1f  p10=%8.1f p50=%8.1f p90=%8.1f\n",
			s.Name, s.Mean, cdfAtP(s.CDF, 0.10), cdfAtP(s.CDF, 0.50), cdfAtP(s.CDF, 0.90))
	}
}

func cdfAtP(cdf []stats.CDFPoint, p float64) float64 {
	for _, pt := range cdf {
		if pt.P >= p {
			return pt.X
		}
	}
	if len(cdf) == 0 {
		return 0
	}
	return cdf[len(cdf)-1].X
}
