package wire

// Tests and fuzz targets for the sharded-setup codec: the chunker and
// assembler agree, the assembler rejects corrupt streams (out-of-order,
// duplicate, post-completion chunks) and never yields a truncated section,
// and the view/world/route codecs are total and canonical.

import (
	"bytes"
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/topology"
)

func viewSeed() *bind.ShardView {
	return &bind.ShardView{
		Shard: 1, Cores: 2, NumNodes: 5, NumLinks: 6,
		Links: []topology.Link{
			{ID: 1, Src: 0, Dst: 3, Attr: topology.LinkAttrs{BandwidthBps: 1e6, LatencySec: 0.001, QueuePkts: 10}},
			{ID: 4, Src: 3, Dst: 2, Attr: topology.LinkAttrs{BandwidthBps: 2e6, LatencySec: 0.002, QueuePkts: 8, Cost: 1}},
		},
		LinkOwner: []int32{1, 0},
		Frontier:  []topology.NodeID{2},
		Summary:   []topology.NodeID{2, 4},
	}
}

func TestChunkRoundTrip(t *testing.T) {
	blob := bytes.Repeat([]byte("setup-section-bytes"), 200_000) // ~3.8MB: several chunks
	for _, tc := range [][]byte{nil, []byte("small"), blob} {
		chunks := Chunks(SecView, tc)
		if !chunks[len(chunks)-1].Last {
			t.Fatalf("final chunk not marked Last")
		}
		a := NewChunkAssembler()
		for _, c := range chunks {
			dec, err := DecodeSetupChunk(c.Encode())
			if err != nil {
				t.Fatalf("decode chunk: %v", err)
			}
			if err := a.Add(dec); err != nil {
				t.Fatalf("add chunk: %v", err)
			}
		}
		got, ok := a.Section(SecView)
		if !ok || !bytes.Equal(got, tc) {
			t.Fatalf("section mismatch: ok=%v got %d bytes, want %d", ok, len(got), len(tc))
		}
	}
}

func TestAssemblerRejectsCorruptStreams(t *testing.T) {
	chunks := Chunks(SecConfig, bytes.Repeat([]byte("x"), SetupChunkBytes+100)) // 2 chunks
	if len(chunks) != 2 {
		t.Fatalf("want 2 chunks, got %d", len(chunks))
	}

	// Out-of-order: second chunk first.
	a := NewChunkAssembler()
	if err := a.Add(chunks[1]); err == nil {
		t.Fatalf("out-of-order chunk accepted")
	}

	// Duplicate: same seq twice.
	a = NewChunkAssembler()
	if err := a.Add(chunks[0]); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(chunks[0]); err == nil {
		t.Fatalf("duplicate chunk accepted")
	}

	// Post-completion: anything after Last.
	a = NewChunkAssembler()
	for _, c := range chunks {
		if err := a.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	extra := chunks[1]
	extra.Seq = 2
	if err := a.Add(extra); err == nil {
		t.Fatalf("chunk after section completion accepted")
	}

	// Truncated: a section without its Last chunk never materializes.
	a = NewChunkAssembler()
	if err := a.Add(chunks[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Section(SecConfig); ok {
		t.Fatalf("incomplete section returned")
	}
	if _, err := a.Require(SecConfig); err == nil {
		t.Fatalf("Require accepted a truncated section")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	body := make([]byte, MaxFrame-1)
	var sink bytes.Buffer
	if err := WriteFrame(&sink, TSetupChunk, body); err == nil {
		t.Fatalf("oversize frame written without error")
	} else if got := err.Error(); !bytes.Contains([]byte(got), []byte("MaxFrame")) {
		t.Fatalf("oversize error does not name the limit: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("AppendFrame accepted an oversize body")
		}
	}()
	AppendFrame(nil, TSetupChunk, body)
}

// FuzzSetupChunk: arbitrary bytes never panic the chunk decoder, and a
// chunk that decodes re-encodes byte-identically.
func FuzzSetupChunk(f *testing.F) {
	for _, c := range Chunks(SecWorld, bytes.Repeat([]byte("world"), 1000)) {
		f.Add(c.Encode())
	}
	f.Add(SetupChunk{Section: SecDynamics, Seq: 0, Last: true}.Encode())
	f.Add([]byte{SecView, 9, 0, 0, 0, 2}) // non-canonical Last byte
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeSetupChunk(b)
		if err != nil {
			return
		}
		if !bytes.Equal(m.Encode(), b) {
			t.Fatalf("SetupChunk decode/encode not canonical for %x", b)
		}
	})
}

// FuzzShardSetup feeds arbitrary bytes to the view, world, and route-RPC
// decoders: no panics, and successful decodes are canonical.
func FuzzShardSetup(f *testing.F) {
	f.Add(EncodeShardView(viewSeed()))
	f.Add(EncodeWorld(World{VNHome: []int32{0, 3}, Homes: []int32{0, 1}}))
	f.Add(RouteReq{Epoch: 2, Target: 7}.Encode())
	f.Add(RouteResp{Epoch: 2, Target: 7, Dists: []bind.Dist{{Lat: 5, Hops: 1}, bind.Unreachable}}.Encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if v, err := DecodeShardView(b); err == nil {
			if !bytes.Equal(EncodeShardView(v), b) {
				t.Fatalf("ShardView decode/encode not canonical for %x", b)
			}
		}
		if w, err := DecodeWorld(b); err == nil {
			if !bytes.Equal(EncodeWorld(w), b) {
				t.Fatalf("World decode/encode not canonical for %x", b)
			}
		}
		if m, err := DecodeRouteReq(b); err == nil {
			if !bytes.Equal(m.Encode(), b) {
				t.Fatalf("RouteReq decode/encode not canonical for %x", b)
			}
		}
		if m, err := DecodeRouteResp(b); err == nil {
			if !bytes.Equal(m.Encode(), b) {
				t.Fatalf("RouteResp decode/encode not canonical for %x", b)
			}
		}
	})
}
