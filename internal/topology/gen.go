package topology

import (
	"math"
	"math/rand"
	"strconv"
)

// Mbps converts megabits/second to bits/second for LinkAttrs.BandwidthBps.
func Mbps(m float64) float64 { return m * 1e6 }

// Ms converts milliseconds to seconds for LinkAttrs.LatencySec.
func Ms(m float64) float64 { return m * 1e-3 }

// Ring builds the paper's §4.1 distillation benchmark topology: nRouters
// stub routers in a ring connected by transit links, each router serving
// vnsPerRouter client nodes over individual access links.
func Ring(nRouters, vnsPerRouter int, ringAttr, accessAttr LinkAttrs) *Graph {
	g := sized(nRouters*(1+vnsPerRouter), 2*nRouters*(1+vnsPerRouter))
	routers := make([]NodeID, nRouters)
	for i := range routers {
		routers[i] = g.AddNode(Stub, "ring"+strconv.Itoa(i))
	}
	for i := range routers {
		g.AddDuplex(routers[i], routers[(i+1)%nRouters], ringAttr)
	}
	for i, r := range routers {
		for j := 0; j < vnsPerRouter; j++ {
			c := g.AddNode(Client, "vn"+strconv.Itoa(i)+"-"+strconv.Itoa(j))
			g.AddDuplex(c, r, accessAttr)
		}
	}
	return g
}

// Star builds the §3.3 scaling topology: nClients client nodes all attached
// to a single hub, so every path is exactly two hops.
func Star(nClients int, attr LinkAttrs) *Graph {
	g := sized(1+nClients, 2*nClients)
	hub := g.AddNode(Transit, "hub")
	for i := 0; i < nClients; i++ {
		c := g.AddNode(Client, "vn"+strconv.Itoa(i))
		g.AddDuplex(c, hub, attr)
	}
	return g
}

// Line builds a chain of hops+1 routers with a client at each end, so the
// client-to-client path traverses exactly hops router links plus two access
// links. Used by the Fig. 4 capacity experiment to vary per-packet work.
func Line(hops int, attr LinkAttrs) *Graph {
	if hops < 1 {
		hops = 1
	}
	g := sized(hops+2, 2*(hops+1))
	prev := g.AddNode(Client, "src")
	first := g.AddNode(Stub, "r0")
	g.AddDuplex(prev, first, attr)
	cur := first
	for i := 1; i < hops; i++ {
		next := g.AddNode(Stub, "r"+strconv.Itoa(i))
		g.AddDuplex(cur, next, attr)
		cur = next
	}
	dst := g.AddNode(Client, "dst")
	g.AddDuplex(cur, dst, attr)
	return g
}

// Pairs builds n independent source→sink client pairs, each connected by a
// private chain of hops identical pipes (the Fig. 4 workload: "directly
// connects each sender with a receiver over a configurable number of
// 10 Mb/s pipes").
func Pairs(n, hops int, attr LinkAttrs) *Graph {
	g := sized(n*max(hops+1, 2), 2*n*max(hops, 1))
	for i := 0; i < n; i++ {
		src := g.AddNode(Client, "send"+strconv.Itoa(i))
		prev := src
		for h := 0; h < hops-1; h++ {
			r := g.AddNode(Stub, "p"+strconv.Itoa(i)+"-r"+strconv.Itoa(h))
			g.AddDuplex(prev, r, attr)
			prev = r
		}
		dst := g.AddNode(Client, "recv"+strconv.Itoa(i))
		g.AddDuplex(prev, dst, attr)
	}
	return g
}

// FullMesh builds n client nodes with a direct duplex link between every
// pair — the shape of an end-to-end distilled topology, and of the RON
// testbed used in §5.1. attrFn supplies per-pair attributes.
func FullMesh(n int, attrFn func(i, j int) LinkAttrs) *Graph {
	g := sized(n, n*(n-1))
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(Client, "site"+strconv.Itoa(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a := attrFn(i, j)
			g.AddDuplex(ids[i], ids[j], a)
		}
	}
	return g
}

// TransitStubConfig parameterizes the GT-ITM-style generator used by the
// §5.2 (320-node) and §5.3 (600-node) case studies.
type TransitStubConfig struct {
	TransitDomains    int // number of transit domains
	TransitPerDomain  int // routers per transit domain
	StubsPerTransit   int // stub domains hanging off each transit router
	RoutersPerStub    int // routers per stub domain
	ClientsPerStub    int // client nodes attached per stub domain
	TransitTransit    LinkAttrs
	TransitStub       LinkAttrs
	StubStub          LinkAttrs
	ClientStub        LinkAttrs
	ExtraStubEdgeProb float64 // probability of an extra intra-stub edge per router pair
	Seed              int64
}

// TransitStub builds a GT-ITM-style transit-stub topology: a clique-ish core
// of transit routers, stub domains (small connected router groups) attached
// to transit routers, and clients attached to stub routers round-robin.
func TransitStub(cfg TransitStubConfig) *Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Sized for every node and every link but the random extra stub edges.
	nTransit := cfg.TransitDomains * cfg.TransitPerDomain
	nStubs := nTransit * cfg.StubsPerTransit
	g := sized(nTransit+nStubs*(cfg.RoutersPerStub+cfg.ClientsPerStub),
		2*(nTransit+2*cfg.TransitDomains+nStubs*(cfg.RoutersPerStub+cfg.ClientsPerStub)))

	// Transit core: each domain is a ring + chords; domains interconnected.
	var transit []NodeID
	domains := make([][]NodeID, cfg.TransitDomains)
	for d := 0; d < cfg.TransitDomains; d++ {
		for i := 0; i < cfg.TransitPerDomain; i++ {
			id := g.AddNode(Transit, "t"+strconv.Itoa(d)+"-"+strconv.Itoa(i))
			domains[d] = append(domains[d], id)
			transit = append(transit, id)
		}
		dd := domains[d]
		for i := range dd {
			if len(dd) > 1 {
				g.AddDuplex(dd[i], dd[(i+1)%len(dd)], cfg.TransitTransit)
			}
		}
		// A chord for diameter reduction in larger domains.
		if len(dd) >= 4 {
			g.AddDuplex(dd[0], dd[len(dd)/2], cfg.TransitTransit)
		}
	}
	for d := 1; d < cfg.TransitDomains; d++ {
		a := domains[d-1][rng.Intn(len(domains[d-1]))]
		b := domains[d][rng.Intn(len(domains[d]))]
		g.AddDuplex(a, b, cfg.TransitTransit)
	}

	// Stub domains.
	clientTurn := 0
	for _, t := range transit {
		for s := 0; s < cfg.StubsPerTransit; s++ {
			var stub []NodeID
			for r := 0; r < cfg.RoutersPerStub; r++ {
				stub = append(stub, g.AddNode(Stub, "s"+strconv.Itoa(int(t))+"-"+strconv.Itoa(s)+"-"+strconv.Itoa(r)))
			}
			for i := 1; i < len(stub); i++ {
				g.AddDuplex(stub[i-1], stub[i], cfg.StubStub)
			}
			for i := 0; i < len(stub); i++ {
				for j := i + 2; j < len(stub); j++ {
					if rng.Float64() < cfg.ExtraStubEdgeProb {
						g.AddDuplex(stub[i], stub[j], cfg.StubStub)
					}
				}
			}
			g.AddDuplex(t, stub[0], cfg.TransitStub)
			for c := 0; c < cfg.ClientsPerStub; c++ {
				cl := g.AddNode(Client, "c"+strconv.Itoa(clientTurn))
				clientTurn++
				g.AddDuplex(cl, stub[c%len(stub)], cfg.ClientStub)
			}
		}
	}
	return g
}

// JitterCosts assigns each link of the given class a Cost drawn uniformly
// from [lo,hi], as in the ACDC experiment (§5.3: transit-transit cost 20-40,
// transit-stub 10-20, stub-stub 1-5).
func (g *Graph) JitterCosts(class LinkClass, lo, hi float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// Assign the same cost to both directions of a duplex pair: iterate and
	// remember reverse assignments.
	type pair struct{ a, b NodeID }
	assigned := map[pair]float64{}
	for i := range g.Links {
		l := &g.Links[i]
		if g.Class(*l) != class {
			continue
		}
		if c, ok := assigned[pair{l.Dst, l.Src}]; ok {
			l.Attr.Cost = c
			continue
		}
		c := lo + rng.Float64()*(hi-lo)
		c = math.Round(c*100) / 100
		l.Attr.Cost = c
		assigned[pair{l.Src, l.Dst}] = c
	}
}
