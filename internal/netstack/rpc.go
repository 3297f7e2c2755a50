package netstack

import (
	"cmp"
	"errors"
	"slices"

	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// This file provides a small UDP request/response RPC used by the
// distributed applications in the case studies (Chord lookups, CFS block
// fetches, ACDC probes, gnutella control traffic). Requests are retried on
// a timeout and matched to responses by ID.

// ErrRPCTimeout reports a call that exhausted its retries.
var ErrRPCTimeout = errors.New("netstack: rpc timeout")

// rpcFrame is the wire payload of one RPC packet, riding its Datagram's Obj.
// Frames are recycled with the datagrams that carry them: each transmission
// (every retry included) takes its own off the event loop's free list and
// the receiving node puts it back once it has read it, so handlers and done
// callbacks see the Body and never the frame.
type rpcFrame struct {
	ID     uint64
	IsResp bool
	Body   any
}

// RPCHandler serves one inbound request: it returns the response body and
// its payload size in bytes. Returning a nil body suppresses the response
// (the caller will time out), modeling a dead or overloaded peer.
type RPCHandler func(from Endpoint, body any, size int) (resp any, respSize int)

// RPCNode is one endpoint able to both serve and issue RPCs over a single
// UDP socket.
type RPCNode struct {
	sock    *UDPSocket
	sched   *vtime.Scheduler
	vn      pipes.VN
	handler RPCHandler
	nextID  uint64
	pending map[uint64]*rpcCall

	Calls, Timeouts, Served uint64
}

type rpcCall struct {
	n        *RPCNode
	id       uint64
	to       Endpoint
	size     int
	body     any
	tries    int
	maxTry   int
	timeout  vtime.Duration
	timer    *vtime.Timer
	done     func(resp any, err error)
	finished bool
}

// finish completes the call exactly once.
func (c *rpcCall) finish(resp any, err error) {
	if c.finished {
		return
	}
	c.finished = true
	c.timer.StopTimer()
	delete(c.n.pending, c.id)
	if c.done != nil {
		c.done(resp, err)
	}
}

// NewRPCNode binds an RPC endpoint on the host at port (0 = ephemeral).
func NewRPCNode(h *Host, port uint16, handler RPCHandler) (*RPCNode, error) {
	n := &RPCNode{
		sched:   h.sched,
		vn:      h.vn,
		handler: handler,
		pending: make(map[uint64]*rpcCall),
	}
	sock, err := h.OpenUDP(port, n.onDatagram)
	if err != nil {
		return nil, err
	}
	n.sock = sock
	return n, nil
}

// Addr returns the node's endpoint.
func (n *RPCNode) Addr() Endpoint { return n.sock.Addr() }

// Close unbinds the node and fails the calls pending at that moment, in the
// order they were issued: a done callback may send, so the order is
// simulated behaviour and must not be a map's. A call issued by one of those
// callbacks is not failed here; it times out on its own.
func (n *RPCNode) Close() {
	n.sock.Close()
	calls := make([]*rpcCall, 0, len(n.pending))
	for _, call := range n.pending {
		calls = append(calls, call)
	}
	slices.SortFunc(calls, func(a, b *rpcCall) int { return cmp.Compare(a.id, b.id) })
	for _, call := range calls {
		call.finish(nil, ErrRPCTimeout)
	}
}

// CallOpts tune an RPC call.
type CallOpts struct {
	Timeout vtime.Duration // per-try timeout (default 500 ms)
	Retries int            // additional attempts after the first (0, or negative: a single try)
}

// Call issues a request of the given payload size; done fires exactly once
// with the response body or an error.
func (n *RPCNode) Call(to Endpoint, body any, size int, opts CallOpts, done func(resp any, err error)) {
	if opts.Timeout <= 0 {
		opts.Timeout = 500 * vtime.Millisecond
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	n.nextID++
	n.Calls++
	// The retry timer resends only through this host's socket, so the
	// pending deadline carries this VN's owner claim for horizon pricing.
	call := &rpcCall{
		n: n, id: n.nextID, to: to, size: size, body: body,
		maxTry: opts.Retries + 1, timeout: opts.Timeout,
		timer: vtime.NewTaggedTimer(n.sched, int32(n.vn)), done: done,
	}
	n.pending[call.id] = call
	call.attempt()
}

func (c *rpcCall) attempt() {
	c.tries++
	// Arm the timer before sending: a loopback request can be answered
	// synchronously within SendTo.
	c.timer.Reset(c.timeout, c.onTimeout)
	c.n.send(c.to, c.size, c.id, false, c.body)
}

// send transmits one frame, taken from the loop's free list.
func (n *RPCNode) send(to Endpoint, size int, id uint64, isResp bool, body any) {
	f := n.sock.h.pool.frames.get()
	f.ID, f.IsResp, f.Body = id, isResp, body
	n.sock.SendTo(to, size, f)
}

// onTimeout is the per-try deadline: retry while tries remain, else fail.
func (c *rpcCall) onTimeout() {
	if c.finished {
		return
	}
	if c.tries < c.maxTry {
		c.attempt()
		return
	}
	c.n.Timeouts++
	c.finish(nil, ErrRPCTimeout)
}

func (n *RPCNode) onDatagram(from Endpoint, dg *Datagram) {
	f, ok := dg.Obj.(*rpcFrame)
	if !ok {
		return
	}
	// The frame is read once and released: what follows hands the body on,
	// and the response below may already reuse the struct.
	id, isResp, body := f.ID, f.IsResp, f.Body
	n.sock.h.pool.frames.put(f)
	if isResp {
		call, ok := n.pending[id]
		if !ok {
			return // late duplicate
		}
		call.finish(body, nil)
		return
	}
	if n.handler == nil {
		return
	}
	n.Served++
	resp, respSize := n.handler(from, body, dg.Len)
	if resp == nil {
		return
	}
	n.send(from, respSize, id, true, resp)
}
