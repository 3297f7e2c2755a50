package bind_test

import (
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/topology"
)

// fuzzWorld reads fuzz bytes as a small directed world: a five-byte header —
// node count (2–12), a 16-bit mask of the nodes that host a VN, an optional
// extra VN on any node (so two can share a home), and whether a second
// down-set epoch follows the first — then three bytes per link: tail, head,
// and an attribute byte holding the latency (a tiny set with zero and ties)
// and the two epochs the link is down in. Any tail and head are allowed, so
// self-loops, parallel links, one-way links, isolated nodes and unreachable
// homes all occur. ok is false when fewer than two VNs come out.
func fuzzWorld(data []byte) (g *topology.Graph, homes []topology.NodeID, downs [][]topology.LinkID, ok bool) {
	if len(data) < 5 {
		return nil, nil, nil, false
	}
	n := 2 + int(data[0])%11
	for i := 0; i < n; i++ {
		if (uint(data[1])|uint(data[2])<<8)>>i&1 != 0 {
			homes = append(homes, topology.NodeID(i))
		}
	}
	if data[3]&0x80 != 0 {
		homes = append(homes, topology.NodeID(int(data[3]&0x7f)%n))
	}
	if len(homes) < 2 {
		return nil, nil, nil, false
	}
	downs = make([][]topology.LinkID, 2+data[4]%2)
	lats := []float64{0, 0.001, 0.001, 0.002, 0.005, 0, 0.003, 0.001}
	var links []topology.Link
	for b := data[5:]; len(b) >= 3 && len(links) < 40; b = b[3:] {
		id := topology.LinkID(len(links))
		links = append(links, topology.Link{ID: id, Src: topology.NodeID(int(b[0]) % n), Dst: topology.NodeID(int(b[1]) % n),
			Attr: topology.LinkAttrs{BandwidthBps: 1e7, LatencySec: lats[b[2]&7]}})
		for e := 1; e < len(downs); e++ {
			if b[2]>>(2+e)&1 != 0 {
				downs[e] = append(downs[e], id)
			}
		}
	}
	g, err := topology.NewSkeleton(n, len(links), links)
	return g, homes, downs, err == nil
}

const (
	downIn1 = 1 << 3 // attribute bits of a fuzzWorld link
	downIn2 = 1 << 4
)

// world encodes a hand-built fuzzWorld: n nodes, the home mask, an extra VN
// on node extra (-1 for none), one or two down-set epochs, and the links as
// (tail, head, attribute) triples.
func world(n int, homeMask uint16, extra, epochs int, links ...[3]byte) []byte {
	data := []byte{byte(n - 2), byte(homeMask), byte(homeMask >> 8), 0, byte(epochs - 1)}
	if extra >= 0 {
		data[3] = 0x80 | byte(extra)
	}
	for _, l := range links {
		data = append(data, l[:]...)
	}
	return data
}

func duplex(a, b, attr byte) [][3]byte { return [][3]byte{{a, b, attr}, {b, a, attr}} }

func cat(groups ...[][3]byte) (all [][3]byte) {
	for _, g := range groups {
		all = append(all, g...)
	}
	return all
}

// leafBoundary is the leaf rule's boundary, one small world per case.
var leafBoundary = map[string][]byte{
	"multi-homed client":              world(4, 0b1100, -1, 1, cat(duplex(0, 1, 1), duplex(2, 0, 3), duplex(2, 1, 1), duplex(3, 0, 1))...),
	"two-armed client routes transit": world(5, 0b11100, -1, 1, cat(duplex(0, 2, 0), duplex(2, 1, 0), duplex(3, 0, 1), duplex(4, 1, 1))...),
	"client on a client (Pairs)":      world(2, 0b11, -1, 1, duplex(0, 1, 1)...),
	"leaf keyed by a leaf":            world(4, 0b1110, -1, 1, cat(duplex(0, 1, 1), duplex(1, 2, 1), [][3]byte{{2, 3, 1}, {3, 0, 1}})...),
	"one-way access":                  world(4, 0b1100, -1, 1, cat(duplex(0, 1, 1), [][3]byte{{0, 2, 1}, {2, 1, 1}}, duplex(3, 1, 1))...),
	"access pipe down, then up":       world(4, 0b1100, -1, 2, cat(duplex(0, 1, 1), [][3]byte{{0, 2, 1 | downIn1}, {2, 0, 1}}, duplex(3, 1, 1))...),
	"leaf behind an unreachable router": world(4, 0b1100, -1, 1,
		cat([][3]byte{{0, 1, 1}}, duplex(2, 0, 1), duplex(3, 1, 1))...),
	"two VNs on one home":            world(3, 0b110, 1, 2, cat(duplex(0, 1, 1), duplex(0, 2, 1|downIn2))...),
	"a self-loop is the only way in": world(3, 0b110, -1, 1, cat(duplex(0, 1, 1), [][3]byte{{2, 0, 1}, {2, 2, 0}})...),
}

// TestLeafBoundaryWorlds runs the fuzz target's seed corpus as a plain test.
func TestLeafBoundaryWorlds(t *testing.T) {
	for name, data := range leafBoundary {
		t.Run(name, func(t *testing.T) {
			if _, _, _, ok := fuzzWorld(data); !ok {
				t.Fatal("the seed does not decode to a world")
			}
			routesMatchReference(t, data)
		})
	}
}

// FuzzRoutesMatchReference: on any world fuzzWorld can read, every (epoch,
// source, destination) through the Matrix, a Cache of capacity 1 (four fields)
// and SummaryOracle.Seeds (two fields) equals the Bellman–Ford reference.
func FuzzRoutesMatchReference(f *testing.F) {
	for _, data := range leafBoundary {
		f.Add(data)
	}
	f.Fuzz(routesMatchReference)
}

func routesMatchReference(t *testing.T, data []byte) {
	g, homes, downs, ok := fuzzWorld(data)
	if !ok {
		return
	}
	r := newReference(g, homes, downs, 2)
	cache := bind.NewCache(g, homes, 1)
	for e := range downs {
		cache.Reroute(downs[e])
		r.checkWholeGraph(t, e, cache)
	}
}
