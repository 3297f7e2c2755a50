// Package cfs implements the CFS/DHash archival block store (Dabek et al.,
// SOSP 2001) used in the paper's §5.1 reproduction study: files are split
// into 8 KB blocks striped across a Chord ring, and a client downloads a
// file by looking up each block's owner through Chord and fetching the
// block over RPC, keeping up to a configurable prefetch window of bytes
// outstanding — the knob the CFS paper's Figures 6-8 sweep.
package cfs

import (
	"fmt"

	"modelnet/internal/apps/chord"
	"modelnet/internal/netstack"
	"modelnet/internal/vtime"
)

// BlockSize is DHash's block granularity.
const BlockSize = 8 << 10

// Wire sizes.
const (
	fetchReqSize = 40
	blockPort    = 4001
)

// RPC bodies.
type (
	fetchReq  struct{ Block chord.ID }
	fetchResp struct {
		OK   bool
		Size int
	}
)

// Peer is one CFS node: a Chord participant plus a local block store and a
// block-fetch RPC service.
type Peer struct {
	Chord *chord.Node
	host  *netstack.Host
	rpc   *netstack.RPCNode
	store map[chord.ID]int // block -> size

	BlocksServed uint64
}

// NewPeer creates a CFS peer on host h with Chord identity id.
func NewPeer(h *netstack.Host, id chord.ID, ccfg chord.Config) (*Peer, error) {
	cn, err := chord.NewNode(h, id, ccfg)
	if err != nil {
		return nil, err
	}
	p := &Peer{Chord: cn, host: h, store: make(map[chord.ID]int)}
	rpc, err := netstack.NewRPCNode(h, blockPort, p.serve)
	if err != nil {
		return nil, err
	}
	p.rpc = rpc
	return p, nil
}

// Host returns the peer's network stack (and hence its scheduler).
func (p *Peer) Host() *netstack.Host { return p.host }

// StoreLocal inserts a block into this peer's store directly (used by the
// offline striping step once ownership is known).
func (p *Peer) StoreLocal(id chord.ID, size int) { p.store[id] = size }

func (p *Peer) serve(from netstack.Endpoint, body any, size int) (any, int) {
	req, ok := body.(*fetchReq)
	if !ok {
		return nil, 0
	}
	sz, ok := p.store[req.Block]
	if !ok {
		return &fetchResp{OK: false}, 32
	}
	p.BlocksServed++
	return &fetchResp{OK: true, Size: sz}, 32 + sz
}

// FileBlocks derives the block IDs of a file striped into BlockSize pieces.
func FileBlocks(name string, size int) []chord.ID {
	n := (size + BlockSize - 1) / BlockSize
	out := make([]chord.ID, n)
	for i := range out {
		out[i] = chord.HashString(fmt.Sprintf("%s/%d", name, i))
	}
	return out
}

// Stripe distributes a file's blocks onto the peers that own them
// (offline, by ring position — equivalent to inserting via Chord once the
// ring is consistent). Returns blocks per peer for verification.
func Stripe(peers []*Peer, name string, size int) map[*Peer]int {
	ids := make([]chord.ID, len(peers))
	for i, p := range peers {
		ids[i] = p.Chord.ID()
	}
	blocks := FileBlocks(name, size)
	counts := make(map[*Peer]int)
	for i, owner := range BlockOwners(ids, blocks) {
		p := peers[owner]
		p.StoreLocal(blocks[i], BlockBytes(size, i, len(blocks)))
		counts[p]++
	}
	return counts
}

// BlockBytes is the size of block i of a size-byte file striped into
// len(FileBlocks) pieces (the last block may be short).
func BlockBytes(size, i, blocks int) int {
	if i == blocks-1 && size%BlockSize != 0 {
		return size % BlockSize
	}
	return BlockSize
}

// BlockOwners maps each block onto the index of the peer owning it, given
// only the population's ring positions. It is a pure function of its
// arguments, so every process of a federated run derives the same striping
// from the scenario parameters and stores only its homed peers' blocks.
func BlockOwners(ids []chord.ID, blocks []chord.ID) []int {
	owners := make([]int, len(blocks))
	for i, b := range blocks {
		owners[i] = ownerIndex(ids, b)
	}
	return owners
}

func ownerIndex(ids []chord.ID, key chord.ID) int {
	best, min := -1, 0
	for i, id := range ids {
		if id < ids[min] {
			min = i
		}
		if id >= key && (best < 0 || id < ids[best]) {
			best = i
		}
	}
	if best < 0 {
		return min
	}
	return best
}

// FetchResult summarizes one file download.
type FetchResult struct {
	Bytes   int
	Blocks  int
	Failed  int
	Elapsed vtime.Duration
	// SpeedKBps is the download speed in the CFS paper's unit
	// (kilobytes/second).
	SpeedKBps float64
	// LookupHops is the total Chord hops spent on block lookups.
	LookupHops int
}

// Fetch downloads a file by block list with the given prefetch window (in
// bytes): up to max(1, window/BlockSize) block fetches are kept
// outstanding, each preceded by a Chord lookup of the block's owner. done
// fires when every block has been fetched (or failed).
func (p *Peer) Fetch(blocks []chord.ID, window int, done func(FetchResult)) {
	maxOut := window / BlockSize
	if maxOut < 1 {
		maxOut = 1
	}
	st := &fetchState{
		peer: p, blocks: blocks, maxOut: maxOut, done: done,
		start: p.host.Scheduler().Now(),
	}
	st.pump()
}

type fetchState struct {
	peer   *Peer
	blocks []chord.ID
	next   int
	out    int
	maxOut int
	res    FetchResult
	start  vtime.Time
	done   func(FetchResult)
	fired  bool
}

func (st *fetchState) pump() {
	for st.next < len(st.blocks) && st.out < st.maxOut {
		b := st.blocks[st.next]
		st.next++
		st.out++
		st.lookupAndFetch(b, 0)
	}
	st.finishIfDone()
}

func (st *fetchState) lookupAndFetch(b chord.ID, attempt int) {
	p := st.peer
	p.Chord.Lookup(b, func(owner chord.Ref, hops int, err error) {
		st.res.LookupHops += hops
		if err != nil {
			st.blockDone(b, 0, false)
			return
		}
		// Block service lives on the same host as the Chord node.
		to := netstack.Endpoint{VN: owner.Addr.VN, Port: blockPort}
		p.rpc.Call(to, &fetchReq{Block: b}, fetchReqSize,
			netstack.CallOpts{Timeout: 5 * vtime.Second, Retries: 4},
			func(body any, err error) {
				if err != nil {
					if attempt < 2 {
						// Re-lookup once: ownership may have shifted.
						st.lookupAndFetch(b, attempt+1)
						return
					}
					st.blockDone(b, 0, false)
					return
				}
				resp, ok := body.(*fetchResp)
				if !ok || !resp.OK {
					st.blockDone(b, 0, false)
					return
				}
				st.blockDone(b, resp.Size, true)
			})
	})
}

func (st *fetchState) blockDone(b chord.ID, size int, ok bool) {
	st.out--
	st.res.Blocks++
	if ok {
		st.res.Bytes += size
	} else {
		st.res.Failed++
	}
	st.pump()
}

func (st *fetchState) finishIfDone() {
	if st.fired || st.out > 0 || st.next < len(st.blocks) {
		return
	}
	st.fired = true
	st.res.Elapsed = st.peer.host.Scheduler().Now().Sub(st.start)
	if s := st.res.Elapsed.Seconds(); s > 0 {
		st.res.SpeedKBps = float64(st.res.Bytes) / 1024 / s
	}
	if st.done != nil {
		st.done(st.res)
	}
}
