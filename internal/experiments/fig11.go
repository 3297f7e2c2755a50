package experiments

import (
	"io"

	"modelnet"
	"modelnet/internal/apps/webrepl"
	"modelnet/internal/netstack"
	"modelnet/internal/stats"
	"modelnet/internal/topology"
	"modelnet/internal/traffic"
)

// Fig11 reproduces Figure 11 (§5.2): the CDF of client-perceived request
// latency as replicas are added to a web service on a 320-node
// transit-stub topology (Figure 10's link classes). With one replica, the
// shared transit links congest and ~10% of requests take >5 s; a second
// replica removes most transit contention; a third is marginal.

// Fig11Config parameterizes the experiment.
type Fig11Config struct {
	ClientsPerSite int // VNs at each of C1..C4 (paper: 30)
	TraceDuration  modelnet.Duration
	MinRate        float64
	MaxRate        float64
	Replicas       []int // replica counts to evaluate (paper: 1,2,3)
	Seed           int64
}

// DefaultFig11 is the paper's setup: 120 clients, 2.5 minutes, 60–100 req/s.
func DefaultFig11() Fig11Config {
	return Fig11Config{
		ClientsPerSite: 30,
		TraceDuration:  modelnet.Seconds(150),
		MinRate:        60,
		MaxRate:        100,
		Replicas:       []int{1, 2, 3},
		Seed:           6,
	}
}

// fig10Topology builds the topology of Figure 10: four transit routers in
// a diamond (50 Mb/s, 50 ms), four client stub domains C1..C4 and three
// replica sites R1..R3 hanging off them (transit-stub 25 Mb/s 10 ms;
// stub-stub 10 Mb/s 5 ms), clients on 1 Mb/s 1 ms links and replicas on
// 100 Mb/s 1 ms links. It returns the client VN index ranges per site and
// the replica VN indices.
func fig10Topology(clientsPerSite int) (g *topology.Graph, clientSites [][]int, replicaVNs []int) {
	g = topology.New()
	tt := topology.LinkAttrs{BandwidthBps: topology.Mbps(50), LatencySec: topology.Ms(50), QueuePkts: 60}
	ts := topology.LinkAttrs{BandwidthBps: topology.Mbps(25), LatencySec: topology.Ms(10), QueuePkts: 60}
	ss := topology.LinkAttrs{BandwidthBps: topology.Mbps(10), LatencySec: topology.Ms(5), QueuePkts: 50}
	cl := topology.LinkAttrs{BandwidthBps: topology.Mbps(1), LatencySec: topology.Ms(1), QueuePkts: 20}
	rl := topology.LinkAttrs{BandwidthBps: topology.Mbps(100), LatencySec: topology.Ms(1), QueuePkts: 60}

	// Transit diamond.
	var t [4]topology.NodeID
	for i := range t {
		t[i] = g.AddNode(topology.Transit, "")
	}
	g.AddDuplex(t[0], t[1], tt)
	g.AddDuplex(t[1], t[2], tt)
	g.AddDuplex(t[2], t[3], tt)
	g.AddDuplex(t[3], t[0], tt)

	// A stub domain: three routers in a line, head attached to a transit.
	stub := func(at topology.NodeID) []topology.NodeID {
		var rs []topology.NodeID
		for i := 0; i < 3; i++ {
			rs = append(rs, g.AddNode(topology.Stub, ""))
			if i > 0 {
				g.AddDuplex(rs[i-1], rs[i], ss)
			}
		}
		g.AddDuplex(at, rs[0], ts)
		return rs
	}

	// Client sites C1..C4 on the four transits. VN indices accumulate in
	// creation order of client nodes.
	nextVN := 0
	for site := 0; site < 4; site++ {
		rs := stub(t[site])
		var vns []int
		for c := 0; c < clientsPerSite; c++ {
			cn := g.AddNode(topology.Client, "")
			g.AddDuplex(cn, rs[c%len(rs)], cl)
			vns = append(vns, nextVN)
			nextVN++
		}
		clientSites = append(clientSites, vns)
	}
	// Replica sites R1..R3 on transits 0, 2, 3 (spread across the core).
	// Each replica sits at the deep end of its stub domain, so all of its
	// traffic crosses the 10 Mb/s stub-stub links — the contended
	// resource that an added replica relieves (§5.2).
	for _, at := range []topology.NodeID{t[0], t[2], t[3]} {
		rs := stub(at)
		rn := g.AddNode(topology.Client, "")
		g.AddDuplex(rn, rs[len(rs)-1], rl)
		replicaVNs = append(replicaVNs, nextVN)
		nextVN++
	}
	return g, clientSites, replicaVNs
}

// Fig11Series is one replica-count latency CDF (seconds).
type Fig11Series struct {
	Replicas int
	CDF      []stats.CDFPoint
	Failed   int
	Over5s   float64 // fraction of requests slower than 5 s
}

// RunFig11 evaluates each replica count.
func RunFig11(cfg Fig11Config) ([]Fig11Series, error) {
	var out []Fig11Series
	for _, nr := range cfg.Replicas {
		s, err := runFig11Point(cfg, nr)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func runFig11Point(cfg Fig11Config, numReplicas int) (Fig11Series, error) {
	g, clientSites, replicaVNs := fig10Topology(cfg.ClientsPerSite)
	em, err := modelnet.Run(g, modelnet.Options{Seed: cfg.Seed})
	if err != nil {
		return Fig11Series{}, err
	}
	// Replica servers.
	for i := 0; i < numReplicas; i++ {
		if _, err := webrepl.NewServer(em.NewHost(modelnet.VN(replicaVNs[i])), 80); err != nil {
			return Fig11Series{}, err
		}
	}
	// Request routing, per the paper's three experiments:
	//   1 replica: everyone -> R1
	//   2 replicas: C1, C2 -> R2; C3, C4 -> R1
	//   3 replicas: C1,C2 -> R2; C3 -> R1; C4 -> R3
	nClients := 4 * cfg.ClientsPerSite
	siteOf := make([]int, nClients)
	for s, vns := range clientSites {
		for _, vn := range vns {
			siteOf[vn] = s
		}
	}
	target := func(client int) netstack.Endpoint {
		site := siteOf[client%nClients]
		r := 0
		switch numReplicas {
		case 2:
			if site == 0 || site == 1 {
				r = 1
			}
		case 3:
			switch site {
			case 0, 1:
				r = 1
			case 3:
				r = 2
			}
		}
		return netstack.Endpoint{VN: modelnet.VN(replicaVNs[r]), Port: 80}
	}

	hosts := make([]*netstack.Host, nClients)
	for i := 0; i < nClients; i++ {
		hosts[i] = em.NewHost(modelnet.VN(i))
	}
	pb := webrepl.NewPlayback(hosts, target)
	reqs := traffic.Synthesize(traffic.TraceConfig{
		Duration: modelnet.Duration(cfg.TraceDuration),
		Clients:  nClients,
		MinRate:  cfg.MinRate, MaxRate: cfg.MaxRate,
		// Response sizes chosen so the peak (100 req/s) load approaches
		// the 10 Mb/s bottleneck capacity with one replica.
		MedianSize: 8 << 10,
		Seed:       cfg.Seed,
	})
	pb.Run(reqs)
	em.RunUntil(modelnet.Time(cfg.TraceDuration) + modelnet.Time(modelnet.Seconds(60)))
	lat, failed := pb.LatencySample()
	over5 := 1 - lat.FractionBelow(5.0)
	return Fig11Series{Replicas: numReplicas, CDF: lat.CDFAt(20), Failed: failed, Over5s: over5}, nil
}

// PrintFig11 renders the CDFs.
func PrintFig11(w io.Writer, series []Fig11Series) {
	fprintf(w, "Figure 11: client latency CDF vs replica count (seconds)\n")
	for _, s := range series {
		fprintf(w, "%d replica(s): p50=%6.3f p90=%6.3f p99=%6.3f  >5s: %4.1f%%  failed=%d\n",
			s.Replicas, cdfAtP(s.CDF, 0.50), cdfAtP(s.CDF, 0.90), cdfAtP(s.CDF, 0.99),
			s.Over5s*100, s.Failed)
	}
}
