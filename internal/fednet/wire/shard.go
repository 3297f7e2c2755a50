package wire

// The setup codec. The coordinator streams each worker a handful of setup
// *sections* — run config, the worker's shard view, the VN world map,
// the dynamics spec — as TSetupChunk frames bounded by SetupChunkBytes, so
// setup size scales with the shard, not the world, and no frame approaches
// MaxFrame. The worker reassembles sections with a ChunkAssembler that
// rejects out-of-order, duplicate, and post-completion chunks; a section
// whose final chunk never arrives stays incomplete and setup fails loudly
// instead of decoding a truncated blob.
//
// The TRouteReq/TRouteResp pair is the demand-paging RPC behind a worker's
// route Cache (bind.NewShardTable): a worker that needs the frontier summary
// distances for a (reroute epoch, target node) asks the coordinator's
// summary oracle.

import (
	"fmt"
	"sort"

	"modelnet/internal/bind"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// Setup section IDs. Each section is one independently-encoded blob,
// chunked for transport.
const (
	SecConfig   uint8 = 1 // JSON run config (fednet setup)
	SecView     uint8 = 2 // EncodeShardView: the worker's slice of the world
	SecWorld    uint8 = 3 // EncodeWorld: dense VN -> home node / home shard maps
	SecDynamics uint8 = 4 // dynamics.Encode spec; empty when the run has none
)

// SetupChunkBytes bounds one chunk's blob — far under MaxFrame, so setup
// frames never trip the frame-size guard and interleave cheaply with other
// control traffic.
const SetupChunkBytes = 1 << 20

// SetupChunk is one piece of a setup section. Chunks of a section carry
// dense sequence numbers from 0; Last marks the section complete.
type SetupChunk struct {
	Section uint8
	Seq     uint32
	Last    bool
	Blob    []byte
}

// Encode returns the frame body.
func (m SetupChunk) Encode() []byte {
	var e Enc
	e.U8(m.Section)
	e.U32(m.Seq)
	e.Bool(m.Last)
	e.Blob(m.Blob)
	return e.Bytes()
}

// DecodeSetupChunk parses a TSetupChunk body.
func DecodeSetupChunk(b []byte) (SetupChunk, error) {
	d := NewDec(b)
	m := SetupChunk{Section: d.U8(), Seq: d.U32()}
	last, err := d.StrictBool()
	if err != nil {
		return SetupChunk{}, err
	}
	m.Last = last
	m.Blob = append([]byte(nil), d.Blob()...)
	if err := d.Done(); err != nil {
		return SetupChunk{}, err
	}
	if len(m.Blob) == 0 {
		m.Blob = nil
	}
	return m, d.Done()
}

// Chunks splits a section blob into transport chunks. An empty blob yields
// one empty final chunk, so every section announces completion explicitly.
func Chunks(section uint8, blob []byte) []SetupChunk {
	var out []SetupChunk
	seq := uint32(0)
	for {
		n := len(blob)
		if n > SetupChunkBytes {
			n = SetupChunkBytes
		}
		c := SetupChunk{Section: section, Seq: seq, Blob: blob[:n]}
		if len(c.Blob) == 0 {
			c.Blob = nil
		}
		blob = blob[n:]
		c.Last = len(blob) == 0
		out = append(out, c)
		seq++
		if c.Last {
			return out
		}
	}
}

// ChunkAssembler reassembles setup sections from their chunk stream. It is
// strict: chunks of a section must arrive in dense sequence order, and
// nothing may follow a section's final chunk.
type ChunkAssembler struct {
	buf  map[uint8][]byte
	next map[uint8]uint32
	done map[uint8]bool
}

// NewChunkAssembler returns an empty assembler.
func NewChunkAssembler() *ChunkAssembler {
	return &ChunkAssembler{
		buf:  make(map[uint8][]byte),
		next: make(map[uint8]uint32),
		done: make(map[uint8]bool),
	}
}

// Add feeds one chunk, rejecting it if its section is already complete or
// its sequence number is not the next expected one.
func (a *ChunkAssembler) Add(c SetupChunk) error {
	if a.done[c.Section] {
		return fmt.Errorf("wire: chunk %d for already-complete setup section %d", c.Seq, c.Section)
	}
	if want := a.next[c.Section]; c.Seq != want {
		return fmt.Errorf("wire: setup section %d chunk out of order: got seq %d, want %d", c.Section, c.Seq, want)
	}
	a.buf[c.Section] = append(a.buf[c.Section], c.Blob...)
	a.next[c.Section]++
	if c.Last {
		a.done[c.Section] = true
	}
	return nil
}

// Section returns a completed section's bytes. ok is false while the
// section's final chunk has not arrived (a truncated stream never yields a
// partial blob).
func (a *ChunkAssembler) Section(sec uint8) (blob []byte, ok bool) {
	if !a.done[sec] {
		return nil, false
	}
	return a.buf[sec], true
}

// Require returns the named completed sections or an explicit error naming
// the first one still incomplete.
func (a *ChunkAssembler) Require(secs ...uint8) (map[uint8][]byte, error) {
	out := make(map[uint8][]byte, len(secs))
	for _, s := range secs {
		b, ok := a.Section(s)
		if !ok {
			return nil, fmt.Errorf("wire: setup section %d incomplete (chunk stream truncated)", s)
		}
		out[s] = b
	}
	return out, nil
}

// World is the VN-level world map a worker needs beyond its view:
// where every VN attaches and which shard homes it. Dense over all VNs —
// two int32 per VN is the only O(world) term a worker materializes.
type World struct {
	VNHome []int32 // VN -> home topology node
	Homes  []int32 // VN -> home shard
}

// EncodeWorld serializes the world map.
func EncodeWorld(w World) []byte {
	var e Enc
	e.U32(uint32(len(w.VNHome)))
	for _, n := range w.VNHome {
		e.I32(n)
	}
	for _, h := range w.Homes {
		e.I32(h)
	}
	return e.Bytes()
}

// DecodeWorld parses EncodeWorld output. VNHome and Homes are always the
// same length (one entry per VN).
func DecodeWorld(b []byte) (World, error) {
	d := NewDec(b)
	n := d.Len(8)
	w := World{VNHome: make([]int32, 0, n), Homes: make([]int32, 0, n)}
	for i := 0; i < n; i++ {
		w.VNHome = append(w.VNHome, d.I32())
	}
	for i := 0; i < n; i++ {
		w.Homes = append(w.Homes, d.I32())
	}
	if err := d.Done(); err != nil {
		return World{}, err
	}
	for v, h := range w.VNHome {
		if h < 0 {
			return World{}, fmt.Errorf("wire: VN %d homed at negative node %d", v, h)
		}
		if w.Homes[v] < 0 {
			return World{}, fmt.Errorf("wire: VN %d homed on negative shard %d", v, w.Homes[v])
		}
	}
	return w, nil
}

// EncodeShardView serializes a shard view bit-exactly (link attributes
// travel as raw float bits).
func EncodeShardView(v *bind.ShardView) []byte {
	var e Enc
	e.I32(int32(v.Shard))
	e.I32(int32(v.Cores))
	e.U32(uint32(v.NumNodes))
	e.U32(uint32(v.NumLinks))
	e.U32(uint32(len(v.Links)))
	for i, l := range v.Links {
		e.U32(uint32(l.ID))
		e.U32(uint32(l.Src))
		e.U32(uint32(l.Dst))
		e.F64(l.Attr.BandwidthBps)
		e.F64(l.Attr.LatencySec)
		e.F64(l.Attr.LossRate)
		e.I32(int32(l.Attr.QueuePkts))
		e.F64(l.Attr.Cost)
		e.I32(v.LinkOwner[i])
	}
	e.U32(uint32(len(v.Frontier)))
	for _, n := range v.Frontier {
		e.U32(uint32(n))
	}
	e.U32(uint32(len(v.Summary)))
	for _, n := range v.Summary {
		e.U32(uint32(n))
	}
	return e.Bytes()
}

// viewLinkRow is one encoded view link: ID, endpoints, 3 floats, queue, cost, owner.
const viewLinkRow = 3*4 + 3*8 + 4 + 8 + 4

// DecodeShardView parses EncodeShardView output, enforcing the structural
// invariants bind.ShardView promises: links in strictly ascending global ID
// order with in-range endpoints and owners, frontier and summary strictly
// ascending node sets.
func DecodeShardView(b []byte) (*bind.ShardView, error) {
	d := NewDec(b)
	v := &bind.ShardView{
		Shard:    int(d.I32()),
		Cores:    int(d.I32()),
		NumNodes: int(d.U32()),
		NumLinks: int(d.U32()),
	}
	nLinks := d.Len(viewLinkRow)
	for i := 0; i < nLinks; i++ {
		l := topology.Link{
			ID:  topology.LinkID(d.U32()),
			Src: topology.NodeID(d.U32()),
			Dst: topology.NodeID(d.U32()),
			Attr: topology.LinkAttrs{
				BandwidthBps: d.F64(),
				LatencySec:   d.F64(),
				LossRate:     d.F64(),
				QueuePkts:    int(d.I32()),
				Cost:         d.F64(),
			},
		}
		v.Links = append(v.Links, l)
		v.LinkOwner = append(v.LinkOwner, d.I32())
	}
	nf := d.Len(4)
	for i := 0; i < nf; i++ {
		v.Frontier = append(v.Frontier, topology.NodeID(d.U32()))
	}
	ns := d.Len(4)
	for i := 0; i < ns; i++ {
		v.Summary = append(v.Summary, topology.NodeID(d.U32()))
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if v.Cores < 1 || v.Shard < 0 || v.Shard >= v.Cores {
		return nil, fmt.Errorf("wire: shard view for shard %d of %d cores", v.Shard, v.Cores)
	}
	if v.NumNodes < 0 || v.NumLinks < 0 {
		return nil, fmt.Errorf("wire: shard view with %d nodes, %d links", v.NumNodes, v.NumLinks)
	}
	for i, l := range v.Links {
		if int(l.ID) >= v.NumLinks {
			return nil, fmt.Errorf("wire: view link ID %d outside %d-link world", l.ID, v.NumLinks)
		}
		if i > 0 && l.ID <= v.Links[i-1].ID {
			return nil, fmt.Errorf("wire: view links not in ascending ID order at index %d", i)
		}
		if int(l.Src) >= v.NumNodes || int(l.Dst) >= v.NumNodes {
			return nil, fmt.Errorf("wire: view link %d endpoint out of range", l.ID)
		}
		if o := v.LinkOwner[i]; o < 0 || int(o) >= v.Cores {
			return nil, fmt.Errorf("wire: view link %d owned by core %d of %d", l.ID, o, v.Cores)
		}
	}
	// Frontier before summary: a view with both malformed reports the same
	// error every time.
	for _, ns := range []struct {
		name string
		set  []topology.NodeID
	}{{"frontier", v.Frontier}, {"summary", v.Summary}} {
		name, set := ns.name, ns.set
		if !sort.SliceIsSorted(set, func(i, j int) bool { return set[i] < set[j] }) {
			return nil, fmt.Errorf("wire: shard view %s not sorted", name)
		}
		for i, n := range set {
			if int(n) >= v.NumNodes {
				return nil, fmt.Errorf("wire: shard view %s node %d out of range", name, n)
			}
			if i > 0 && n == set[i-1] {
				return nil, fmt.Errorf("wire: shard view %s has duplicate node %d", name, n)
			}
		}
	}
	return v, nil
}

// RouteReq asks the coordinator for the summary distances toward Target
// under reroute epoch Epoch.
type RouteReq struct {
	Epoch  int32
	Target int32
}

// Encode returns the frame body.
func (m RouteReq) Encode() []byte {
	var e Enc
	e.I32(m.Epoch)
	e.I32(m.Target)
	return e.Bytes()
}

// DecodeRouteReq parses a TRouteReq body.
func DecodeRouteReq(b []byte) (RouteReq, error) {
	d := NewDec(b)
	m := RouteReq{Epoch: d.I32(), Target: d.I32()}
	return m, d.Done()
}

// RouteResp carries the requested summary distances: Dists[i] is the global
// canonical distance from the worker's i-th summary node to Target under
// Epoch. Echoing the request key lets the worker pair responses without
// ordering assumptions.
type RouteResp struct {
	Epoch  int32
	Target int32
	Dists  []bind.Dist
}

// Encode returns the frame body.
func (m RouteResp) Encode() []byte {
	var e Enc
	e.I32(m.Epoch)
	e.I32(m.Target)
	e.U32(uint32(len(m.Dists)))
	for _, x := range m.Dists {
		e.I64(int64(x.Lat))
		e.I32(x.Hops)
	}
	return e.Bytes()
}

// DecodeRouteResp parses a TRouteResp body.
func DecodeRouteResp(b []byte) (RouteResp, error) {
	d := NewDec(b)
	m := RouteResp{Epoch: d.I32(), Target: d.I32()}
	n := d.Len(12)
	for i := 0; i < n; i++ {
		m.Dists = append(m.Dists, bind.Dist{Lat: vtime.Duration(d.I64()), Hops: d.I32()})
	}
	return m, d.Done()
}
