// Package chord implements the Chord distributed hash table (Stoica et
// al., SIGCOMM 2001) — the lookup substrate of CFS, the paper's §5.1 case
// study. Nodes form a ring in a 64-bit identifier space with successor
// lists, finger tables, periodic stabilization, and iterative lookups over
// the UDP RPC layer.
package chord

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"

	"modelnet/internal/netstack"
	"modelnet/internal/vtime"
)

// ID is a point on the Chord ring (64-bit identifier space; the original
// uses 160 bits — the reduced width only shrinks hash headroom, not
// behaviour, at these scales).
type ID uint64

// HashBytes maps arbitrary bytes onto the ring (SHA-1, truncated).
func HashBytes(b []byte) ID {
	s := sha1.Sum(b)
	return ID(binary.BigEndian.Uint64(s[:8]))
}

// HashString maps a string key onto the ring.
func HashString(s string) ID { return HashBytes([]byte(s)) }

// between reports whether x ∈ (a, b] on the ring.
func between(a, x, b ID) bool {
	if a < b {
		return x > a && x <= b
	}
	if a > b {
		return x > a || x <= b
	}
	return true // a == b: full circle
}

// betweenOpen reports whether x ∈ (a, b) on the ring.
func betweenOpen(a, x, b ID) bool {
	if a < b {
		return x > a && x < b
	}
	if a > b {
		return x > a || x < b
	}
	return x != a
}

// Ref names a Chord node: its ring position and its RPC endpoint.
type Ref struct {
	ID   ID
	Addr netstack.Endpoint
}

func (r Ref) zero() bool { return r.Addr == netstack.Endpoint{} }

func (r Ref) String() string { return fmt.Sprintf("chord(%016x@%v)", uint64(r.ID), r.Addr) }

// Config tunes a node.
type Config struct {
	Port           uint16         // RPC port (default 4000)
	SuccListLen    int            // successor list length (default 4)
	StabilizeEvery vtime.Duration // default 500 ms
	FixFingerEvery vtime.Duration // default 500 ms
	RPCTimeout     vtime.Duration // per-try (default 500 ms)
	RPCRetries     int            // default 2
	MaxLookupHops  int            // iterative lookup hop bound (default 32)
}

func (c *Config) defaults() {
	if c.Port == 0 {
		c.Port = 4000
	}
	if c.SuccListLen <= 0 {
		c.SuccListLen = 4
	}
	if c.StabilizeEvery <= 0 {
		c.StabilizeEvery = 500 * vtime.Millisecond
	}
	if c.FixFingerEvery <= 0 {
		c.FixFingerEvery = 500 * vtime.Millisecond
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 500 * vtime.Millisecond
	}
	if c.RPCRetries == 0 {
		c.RPCRetries = 2
	}
	if c.MaxLookupHops <= 0 {
		c.MaxLookupHops = 32
	}
}

// RPC message bodies.
type (
	findSuccReq  struct{ Key ID }
	findSuccResp struct {
		Found bool
		Next  Ref // result when Found, else next hop
	}
	getStateReq  struct{}
	getStateResp struct {
		Pred  Ref
		Succs []Ref
	}
	notifyReq struct{ Cand Ref }
	notifyOK  struct{}
)

// Wire sizes (bytes) for control messages.
const (
	reqSize  = 48
	respSize = 96
)

// Node is one Chord participant.
type Node struct {
	id    ID
	cfg   Config
	host  *netstack.Host
	rpc   *netstack.RPCNode
	sched *vtime.Scheduler

	pred    Ref
	succs   []Ref // successor list, succs[0] = immediate successor
	fingers [64]Ref
	nextFix int

	stabilizer *vtime.Ticker
	fixer      *vtime.Ticker

	Lookups     uint64
	LookupHops  uint64
	LookupFails uint64
}

// ErrLookupFailed reports an iterative lookup that could not complete.
var ErrLookupFailed = errors.New("chord: lookup failed")

// NewNode creates a Chord node with the given ring ID on host h.
func NewNode(h *netstack.Host, id ID, cfg Config) (*Node, error) {
	cfg.defaults()
	n := &Node{id: id, cfg: cfg, host: h, sched: h.Scheduler()}
	rpc, err := netstack.NewRPCNode(h, cfg.Port, n.serve)
	if err != nil {
		return nil, err
	}
	n.rpc = rpc
	// Both maintenance loops talk to the ring only through this node's own
	// RPC endpoint, so their pending ticks carry the host VN's owner claim.
	n.stabilizer = vtime.NewTaggedTicker(n.sched, int32(h.VN()), cfg.StabilizeEvery, n.stabilize)
	n.fixer = vtime.NewTaggedTicker(n.sched, int32(h.VN()), cfg.FixFingerEvery, n.fixFinger)
	return n, nil
}

// Ref returns this node's ring reference.
func (n *Node) Ref() Ref { return Ref{ID: n.id, Addr: n.rpc.Addr()} }

// ID returns the node's ring position.
func (n *Node) ID() ID { return n.id }

// Successor returns the current immediate successor.
func (n *Node) Successor() Ref {
	if len(n.succs) == 0 {
		return n.Ref()
	}
	return n.succs[0]
}

// StartMaintenance begins periodic stabilization and finger repair.
func (n *Node) StartMaintenance() {
	n.stabilizer.Start()
	n.fixer.Start()
}

// serve answers Chord RPCs.
func (n *Node) serve(from netstack.Endpoint, body any, size int) (any, int) {
	switch m := body.(type) {
	case *findSuccReq:
		succ := n.Successor()
		if between(n.id, m.Key, succ.ID) {
			return &findSuccResp{Found: true, Next: succ}, respSize
		}
		return &findSuccResp{Next: n.closestPreceding(m.Key)}, respSize
	case *getStateReq:
		return &getStateResp{Pred: n.pred, Succs: append([]Ref(nil), n.succs...)}, respSize
	case *notifyReq:
		if n.pred.zero() || betweenOpen(n.pred.ID, m.Cand.ID, n.id) {
			n.pred = m.Cand
		}
		return &notifyOK{}, reqSize
	}
	return nil, 0
}

// closestPreceding picks the finger or successor-list entry closest to (but
// preceding) key — the routing step of the protocol.
func (n *Node) closestPreceding(key ID) Ref {
	best := n.Ref()
	consider := func(r Ref) {
		if r.zero() || r.ID == n.id {
			return
		}
		if betweenOpen(n.id, r.ID, key) && betweenOpen(best.ID, r.ID, key) {
			best = r
		}
	}
	for i := 63; i >= 0; i-- {
		consider(n.fingers[i])
	}
	for _, s := range n.succs {
		consider(s)
	}
	if best.ID == n.id {
		return n.Successor()
	}
	return best
}

// Lookup resolves the successor of key by iterative routing; done receives
// the owning node and the hop count.
func (n *Node) Lookup(key ID, done func(owner Ref, hops int, err error)) {
	n.Lookups++
	// Keys in (pred, self] are ours: answer locally instead of walking
	// the whole ring.
	if !n.pred.zero() && between(n.pred.ID, key, n.id) {
		done(n.Ref(), 0, nil)
		return
	}
	succ := n.Successor()
	if succ.ID == n.id || between(n.id, key, succ.ID) {
		done(succ, 0, nil)
		return
	}
	n.lookupVia(n.closestPreceding(key), key, 0, done)
}

// lookupVia continues an iterative lookup at the given hop.
func (n *Node) lookupVia(hop Ref, key ID, hops int, done func(Ref, int, error)) {
	if hops >= n.cfg.MaxLookupHops {
		n.LookupFails++
		done(Ref{}, hops, ErrLookupFailed)
		return
	}
	if hop.Addr == n.rpc.Addr() {
		// Routed back to ourselves: answer locally.
		succ := n.Successor()
		if between(n.id, key, succ.ID) {
			done(succ, hops, nil)
			return
		}
	}
	n.call(hop.Addr, &findSuccReq{Key: key}, func(body any, err error) {
		if err != nil {
			n.LookupFails++
			done(Ref{}, hops, fmt.Errorf("chord: hop %d to %v: %w", hops, hop.Addr, err))
			return
		}
		resp, ok := body.(*findSuccResp)
		if !ok {
			n.LookupFails++
			done(Ref{}, hops, ErrLookupFailed)
			return
		}
		n.LookupHops++
		if resp.Found {
			done(resp.Next, hops+1, nil)
			return
		}
		if resp.Next.Addr == hop.Addr {
			// No progress: the hop considers itself closest; take its word
			// for its successor on the next iteration.
			n.call(hop.Addr, &getStateReq{}, func(body any, err error) {
				if err != nil {
					n.LookupFails++
					done(Ref{}, hops+1, ErrLookupFailed)
					return
				}
				st := body.(*getStateResp)
				if len(st.Succs) == 0 {
					n.LookupFails++
					done(Ref{}, hops+1, ErrLookupFailed)
					return
				}
				done(st.Succs[0], hops+2, nil)
			})
			return
		}
		n.lookupVia(resp.Next, key, hops+1, done)
	})
}

func (n *Node) call(to netstack.Endpoint, body any, done func(any, error)) {
	n.rpc.Call(to, body, reqSize, netstack.CallOpts{
		Timeout: n.cfg.RPCTimeout,
		Retries: n.cfg.RPCRetries,
	}, done)
}

// stabilize is the periodic successor check: learn our successor's
// predecessor, adopt it if closer, refresh the successor list, notify.
func (n *Node) stabilize() {
	succ := n.Successor()
	if succ.ID == n.id && succ.Addr == n.rpc.Addr() {
		// Pointing at ourselves: if someone has notified us (we have a
		// predecessor), adopt it as successor — this is how the ring's
		// creator links in its first joiner.
		if !n.pred.zero() && n.pred.Addr != n.rpc.Addr() {
			n.succs = []Ref{n.pred}
		} else {
			return // alone in the ring
		}
		succ = n.Successor()
	}
	n.call(succ.Addr, &getStateReq{}, func(body any, err error) {
		if err != nil {
			// Successor unresponsive: fail over down the list.
			if len(n.succs) > 1 {
				n.succs = n.succs[1:]
			}
			return
		}
		st := body.(*getStateResp)
		if !st.Pred.zero() && betweenOpen(n.id, st.Pred.ID, succ.ID) {
			n.succs = append([]Ref{st.Pred}, n.succs...)
			if len(n.succs) > n.cfg.SuccListLen {
				n.succs = n.succs[:n.cfg.SuccListLen]
			}
		} else {
			// Merge successor's list after our immediate successor.
			merged := []Ref{succ}
			for _, s := range st.Succs {
				if s.ID != n.id && len(merged) < n.cfg.SuccListLen {
					merged = append(merged, s)
				}
			}
			n.succs = merged
		}
		n.call(n.Successor().Addr, &notifyReq{Cand: n.Ref()}, func(any, error) {})
	})
}

// fixFinger repairs one finger per tick.
func (n *Node) fixFinger() {
	i := n.nextFix
	n.nextFix = (n.nextFix + 1) % 64
	target := n.id + 1<<uint(i)
	n.Lookup(target, func(owner Ref, _ int, err error) {
		if err == nil {
			n.fingers[i] = owner
		}
	})
}

// Bootstrap wires this node into a consistent ring offline — successor
// list, predecessor, and fingers — from the full membership (every node's
// Ref, in any order; the list must include this node). It is the per-node
// half of BootstrapAll, usable when the other nodes live in different
// processes: a federated scenario derives the same global Ref list on
// every worker and bootstraps only its homed nodes.
func (n *Node) Bootstrap(all []Ref) {
	sorted := sortRefs(all)
	k := len(sorted)
	if k == 0 {
		return
	}
	i := 0
	for ; i < k; i++ {
		if sorted[i].ID == n.id {
			break
		}
	}
	if i == k {
		panic(fmt.Sprintf("chord: Bootstrap membership does not include node %016x", uint64(n.id)))
	}
	n.succs = n.succs[:0]
	for s := 1; s <= n.cfg.SuccListLen && s < k+1; s++ {
		n.succs = append(n.succs, sorted[(i+s)%k])
	}
	if len(n.succs) == 0 {
		n.succs = []Ref{n.Ref()}
	}
	n.pred = sorted[(i-1+k)%k]
	for f := 0; f < 64; f++ {
		target := n.id + 1<<uint(f)
		n.fingers[f] = successorOf(sorted, target)
	}
}

// BootstrapAll wires a set of nodes into a consistent ring offline —
// successors, predecessors, successor lists, and fingers — the "perfect
// initialization" used when an experiment's subject is data transfer rather
// than ring convergence.
func BootstrapAll(nodes []*Node) {
	refs := make([]Ref, len(nodes))
	for i, nd := range nodes {
		refs[i] = nd.Ref()
	}
	for _, nd := range nodes {
		nd.Bootstrap(refs)
	}
}

// sortRefs returns the refs in ascending ID order.
func sortRefs(refs []Ref) []Ref {
	sorted := append([]Ref(nil), refs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].ID < sorted[j-1].ID; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted
}

func successorOf(sorted []Ref, key ID) Ref {
	for _, r := range sorted {
		if r.ID >= key {
			return r
		}
	}
	return sorted[0]
}
