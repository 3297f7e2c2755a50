package topology

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// naiveOut is the adjacency by definition: the links whose tail is n, in
// ascending ID.
func naiveOut(g *Graph, n NodeID) []LinkID {
	var out []LinkID
	for _, l := range g.Links {
		if l.Src == n {
			out = append(out, l.ID)
		}
	}
	return out
}

func checkOut(t *testing.T, what string, g *Graph) {
	t.Helper()
	for n := range g.Nodes {
		if got, want := g.Out(NodeID(n)), naiveOut(g, NodeID(n)); !slices.Equal(got, want) {
			t.Fatalf("%s: Out(%d) = %v, want %v", what, n, got, want)
		}
	}
}

// Property: whatever order links are added in, and however reads interleave
// with the additions, Out(n) is exactly the links leaving n in ascending ID —
// on the graph, on a clone that grows apart from it, and on a skeleton of a
// random subset of its links.
func TestAdjacencyOrderProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		for i := 2 + rng.Intn(12); i > 0; i-- {
			g.AddNode(Stub, "")
		}
		for i := rng.Intn(60); i > 0; i-- {
			switch rng.Intn(8) {
			case 0:
				g.AddNode(Client, "")
			case 1:
				checkOut(t, fmt.Sprintf("seed %d mid-build", seed), g)
			default:
				g.AddLink(NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes())), LinkAttrs{BandwidthBps: 1})
			}
		}
		checkOut(t, fmt.Sprintf("seed %d", seed), g)

		c := g.Clone()
		checkOut(t, fmt.Sprintf("seed %d clone", seed), c)
		n := c.AddNode(Stub, "")
		c.AddLink(n, 0, LinkAttrs{BandwidthBps: 1})
		c.AddLink(0, n, LinkAttrs{BandwidthBps: 1})
		checkOut(t, fmt.Sprintf("seed %d grown clone", seed), c)
		checkOut(t, fmt.Sprintf("seed %d original after its clone grew", seed), g)

		var sub []Link
		for _, l := range g.Links {
			if rng.Intn(2) == 0 {
				sub = append(sub, l)
			}
		}
		s, err := NewSkeleton(g.NumNodes(), g.NumLinks(), sub)
		if err != nil {
			t.Fatalf("seed %d: skeleton of %d ordered links: %v", seed, len(sub), err)
		}
		checkOut(t, fmt.Sprintf("seed %d skeleton", seed), s)
	}
}

// NewSkeleton refuses a link list out of ascending ID order — a swap or a
// repeat — with ErrLinkOrder rather than reordering it.
func TestNewSkeletonRefusesUnorderedLinks(t *testing.T) {
	a := Link{ID: 1, Src: 0, Dst: 1, Attr: LinkAttrs{BandwidthBps: 1}}
	b := Link{ID: 3, Src: 1, Dst: 0, Attr: LinkAttrs{BandwidthBps: 1}}
	for _, links := range [][]Link{{b, a}, {a, a}, {a, b, a}} {
		if _, err := NewSkeleton(2, 4, links); !errors.Is(err, ErrLinkOrder) {
			t.Errorf("skeleton of links %v, %v...: err = %v, want ErrLinkOrder", links[0].ID, links[1].ID, err)
		}
	}
	if _, err := NewSkeleton(2, 4, []Link{a, b}); err != nil {
		t.Errorf("ordered links refused: %v", err)
	}
}

// Clone copies two slices and shares the adjacency arena: the same number of
// allocations at 6 nodes as at 1 640.
func TestCloneAllocs(t *testing.T) {
	var counts []float64
	for _, g := range []*Graph{Ring(2, 2, LinkAttrs{}, LinkAttrs{}), Ring(40, 40, LinkAttrs{}, LinkAttrs{})} {
		g.Out(0)
		counts = append(counts, testing.AllocsPerRun(20, func() { g.Clone() }))
	}
	if counts[0] != counts[1] || counts[1] > 3 {
		t.Fatalf("Clone allocates %v times at 6 and 1 640 nodes; want one count, at most 3", counts)
	}
}

// The arena is built by whichever reader comes first; goroutines sharing a
// finished graph may all be first at once (run under -race).
func TestOutFromManyGoroutines(t *testing.T) {
	g := Ring(8, 4, LinkAttrs{BandwidthBps: 1}, LinkAttrs{BandwidthBps: 1})
	var wg sync.WaitGroup
	got := make([][]LinkID, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := range g.Nodes {
				got[i] = append(got[i], g.Out(NodeID(n))...)
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		if !slices.Equal(got[i], got[0]) {
			t.Fatalf("goroutine %d read %v, goroutine 0 %v", i, got[i], got[0])
		}
	}
	checkOut(t, "after concurrent first reads", g)
}

// Generator labels are built with strconv; they must stay byte for byte what
// the fmt patterns made, or GML output changes.
func TestGeneratorNamesMatchFormat(t *testing.T) {
	ring := Ring(3, 2, std(), std())
	for i := 0; i < 3; i++ {
		if got, want := ring.Nodes[i].Name, fmt.Sprintf("ring%d", i); got != want {
			t.Errorf("ring router %d named %q, want %q", i, got, want)
		}
		for j := 0; j < 2; j++ {
			if got, want := ring.Nodes[3+2*i+j].Name, fmt.Sprintf("vn%d-%d", i, j); got != want {
				t.Errorf("ring VN %d-%d named %q, want %q", i, j, got, want)
			}
		}
	}
	pairs := Pairs(2, 3, std())
	for i := 0; i < 2; i++ {
		want := []string{fmt.Sprintf("send%d", i), fmt.Sprintf("p%d-r0", i), fmt.Sprintf("p%d-r1", i), fmt.Sprintf("recv%d", i)}
		for k, w := range want {
			if got := pairs.Nodes[4*i+k].Name; got != w {
				t.Errorf("pairs node %d named %q, want %q", 4*i+k, got, w)
			}
		}
	}
	ts := TransitStub(TransitStubConfig{TransitDomains: 2, TransitPerDomain: 2, StubsPerTransit: 2, RoutersPerStub: 2, ClientsPerStub: 2,
		TransitTransit: std(), TransitStub: std(), StubStub: std(), ClientStub: std(), Seed: 1})
	var want []string
	for d := 0; d < 2; d++ {
		for i := 0; i < 2; i++ {
			want = append(want, fmt.Sprintf("t%d-%d", d, i))
		}
	}
	client := 0
	for tr := 0; tr < 4; tr++ {
		for s := 0; s < 2; s++ {
			for r := 0; r < 2; r++ {
				want = append(want, fmt.Sprintf("s%d-%d-%d", tr, s, r))
			}
			for c := 0; c < 2; c++ {
				want = append(want, fmt.Sprintf("c%d", client))
				client++
			}
		}
	}
	if len(ts.Nodes) != len(want) {
		t.Fatalf("transit-stub has %d nodes, want %d", len(ts.Nodes), len(want))
	}
	for i, n := range ts.Nodes {
		if n.Name != want[i] {
			t.Errorf("transit-stub node %d named %q, want %q", i, n.Name, want[i])
		}
	}
}
