package cfs

import (
	"fmt"
	"testing"

	"modelnet/internal/apps/chord"
	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

type cluster struct {
	sched *vtime.Scheduler
	peers []*Peer
}

func newCluster(t *testing.T, g *topology.Graph) *cluster {
	t.Helper()
	b, err := bind.Bind(g, bind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := vtime.NewScheduler()
	emu, err := emucore.New(sched, g, b, nil, emucore.IdealProfile(), 17)
	if err != nil {
		t.Fatal(err)
	}
	cl := &cluster{sched: sched}
	var cnodes []*chord.Node
	for i := 0; i < b.NumVNs(); i++ {
		h := netstack.NewHost(pipes.VN(i), sched, emu, emu)
		p, err := NewPeer(h, chord.HashString(fmt.Sprintf("cfs-%d", i)), chord.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cl.peers = append(cl.peers, p)
		cnodes = append(cnodes, p.Chord)
	}
	chord.BootstrapAll(cnodes)
	return cl
}

func simpleMesh(n int) *topology.Graph {
	return topology.FullMesh(n, func(i, j int) topology.LinkAttrs {
		return topology.LinkAttrs{BandwidthBps: 5e6, LatencySec: 0.010, QueuePkts: 40}
	})
}

func TestFileBlocks(t *testing.T) {
	b1 := FileBlocks("f", 1<<20)
	if len(b1) != 128 {
		t.Fatalf("1MB file has %d blocks, want 128", len(b1))
	}
	b2 := FileBlocks("f", 1<<20+1)
	if len(b2) != 129 {
		t.Fatalf("partial block not counted: %d", len(b2))
	}
	// Deterministic and distinct.
	again := FileBlocks("f", 1<<20)
	seen := map[chord.ID]bool{}
	for i := range b1 {
		if b1[i] != again[i] {
			t.Fatal("FileBlocks not deterministic")
		}
		if seen[b1[i]] {
			t.Fatal("duplicate block id")
		}
		seen[b1[i]] = true
	}
}

func TestStripePlacement(t *testing.T) {
	cl := newCluster(t, simpleMesh(12))
	counts := Stripe(cl.peers, "testfile", 1<<20)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 128 {
		t.Fatalf("striped %d blocks", total)
	}
	// Every block lives at its ring owner.
	ids := make([]chord.ID, len(cl.peers))
	for i, p := range cl.peers {
		ids[i] = p.Chord.ID()
	}
	blocks := FileBlocks("testfile", 1<<20)
	for i, owner := range BlockOwners(ids, blocks) {
		if !cl.peers[owner].HasBlock(blocks[i]) {
			t.Fatalf("block %x missing at owner", blocks[i])
		}
	}
}

func TestFetchWholeFile(t *testing.T) {
	cl := newCluster(t, simpleMesh(12))
	const size = 1 << 20
	Stripe(cl.peers, "f", size)
	blocks := FileBlocks("f", size)
	var res FetchResult
	got := false
	cl.peers[0].Fetch(blocks, 24<<10, func(r FetchResult) { res = r; got = true })
	cl.sched.RunUntil(vtime.Time(300 * vtime.Second))
	if !got {
		t.Fatal("fetch never completed")
	}
	if res.Failed != 0 {
		t.Fatalf("%d blocks failed", res.Failed)
	}
	if res.Bytes != size {
		t.Fatalf("fetched %d bytes, want %d", res.Bytes, size)
	}
	if res.SpeedKBps <= 0 {
		t.Fatal("speed not computed")
	}
}

func TestPrefetchWindowSpeedsDownloads(t *testing.T) {
	speed := func(window int) float64 {
		cl := newCluster(t, simpleMesh(12))
		Stripe(cl.peers, "f", 1<<20)
		blocks := FileBlocks("f", 1<<20)
		var res FetchResult
		cl.peers[0].Fetch(blocks, window, func(r FetchResult) { res = r })
		cl.sched.RunUntil(vtime.Time(600 * vtime.Second))
		if res.Bytes != 1<<20 {
			t.Fatalf("window %d: incomplete fetch %d", window, res.Bytes)
		}
		return res.SpeedKBps
	}
	seq := speed(0)         // one block at a time
	wide := speed(40 << 10) // 5 blocks outstanding
	if wide < seq*2 {
		t.Errorf("prefetch window didn't help: %v vs %v KB/s", wide, seq)
	}
}

func TestFetchMissingBlocksFail(t *testing.T) {
	cl := newCluster(t, simpleMesh(4))
	blocks := FileBlocks("nope", 64<<10) // never striped
	var res FetchResult
	cl.peers[0].Fetch(blocks, 16<<10, func(r FetchResult) { res = r })
	cl.sched.RunUntil(vtime.Time(300 * vtime.Second))
	if res.Failed != len(blocks) {
		t.Fatalf("failed = %d, want all %d", res.Failed, len(blocks))
	}
}

func TestRONTopologyShape(t *testing.T) {
	g := RONTopology(RONSites, 3)
	if g.NumNodes() != 12 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumLinks() != 12*11 {
		t.Fatalf("links = %d, want full mesh %d", g.NumLinks(), 12*11)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Overseas pairs slower than university pairs on average.
	var uniLat, overseasLat float64
	var uniN, overseasN int
	for _, l := range g.Links {
		i, j := int(l.Src), int(l.Dst)
		if RONSites[i] == University && RONSites[j] == University {
			uniLat += l.Attr.LatencySec
			uniN++
		}
		if RONSites[i] == Overseas || RONSites[j] == Overseas {
			overseasLat += l.Attr.LatencySec
			overseasN++
		}
	}
	if overseasLat/float64(overseasN) <= uniLat/float64(uniN) {
		t.Error("overseas paths not slower than university paths")
	}
	// Deterministic for a seed.
	g2 := RONTopology(RONSites, 3)
	for i := range g.Links {
		if g.Links[i].Attr != g2.Links[i].Attr {
			t.Fatal("RONTopology not deterministic")
		}
	}
}

func TestFetchOverRON(t *testing.T) {
	cl := newCluster(t, RONTopology(RONSites, 3))
	Stripe(cl.peers, "ron-file", 1<<20)
	blocks := FileBlocks("ron-file", 1<<20)
	var res FetchResult
	cl.peers[0].Fetch(blocks, 24<<10, func(r FetchResult) { res = r })
	cl.sched.RunUntil(vtime.Time(600 * vtime.Second))
	if res.Bytes != 1<<20 {
		t.Fatalf("incomplete: %+v", res)
	}
	// CFS reports tens to ~200 KB/s on RON; require the right ballpark.
	if res.SpeedKBps < 10 || res.SpeedKBps > 1000 {
		t.Errorf("speed %v KB/s outside plausible RON range", res.SpeedKBps)
	}
}
