package pipes

import (
	"modelnet/internal/vtime"
)

// VN identifies a virtual edge node (an application endpoint with its own
// IP address in the emulated network).
type VN int32

// ID names a pipe within an emulation. Dense, starting at 0.
type ID int32

// Packet is the descriptor that traverses the pipe network. The core
// schedules descriptors; payload travels by reference in Payload and is
// never touched by emulation (link emulation does not require access to the
// packet contents, §2.2).
type Packet struct {
	Seq  uint64 // unique per emulation, assigned at injection
	Size int    // bytes on the wire, including headers

	Src, Dst VN

	// Route is the ordered list of pipes from source to destination,
	// resolved at injection from the routing table. Hop indexes the next
	// pipe to traverse.
	Route []ID
	Hop   int

	// Injected is when the packet entered the core. Lag accumulates the
	// scheduler-quantization delay added at each hop relative to exact
	// (unquantized) pipe exits; the accuracy tracker (§3.1) records
	// Lag + final-hop error at delivery.
	Injected vtime.Time
	Lag      vtime.Duration

	// Epoch is the reroute epoch the packet's route was resolved under,
	// pinned at injection. Sharded workers extend a tunneled packet's route
	// with this epoch's distance fields, so an in-flight packet follows the
	// exact route the injection-time table produced even when reroutes land
	// while it crosses shards. Always 0 for tables without epochs (Cache).
	Epoch int32

	// Trace is the packet's mode-invariant trace ID (src VN in the high 32
	// bits, the per-source injection ordinal in the low 32), minted by the
	// observability tracer at injection. Zero when tracing is disabled.
	// Unlike Seq — which embeds the injecting shard and so differs across
	// execution modes — Trace identifies the same packet in every mode.
	Trace uint64

	// Payload carries protocol state (a TCP segment, an RPC frame, ...) by
	// reference.
	Payload any
}

// DropReason classifies why a packet was dropped. It is the unified drop
// taxonomy: pipe-level admission reasons (backlog, loss, RED, link-down),
// the route-lookup rejection (unreachable), and the live-edge gateway
// rejections (oversize, gateway-reject) share one enum so reports and
// traces count every loss the same way.
type DropReason int

const (
	// DropNone means the packet was accepted.
	DropNone DropReason = iota
	// DropBacklog is a congestion-related queue overflow (tail drop).
	DropBacklog
	// DropRandomLoss is the pipe's configured random loss.
	DropRandomLoss
	// DropRED is an early drop by the RED policy.
	DropRED
	// DropLinkDown means the pipe was administratively down (link failure
	// injected by internal/dynamics): new packets blackhole while packets
	// already inside the pipe drain on their original schedule.
	DropLinkDown
	// DropUnreachable means route lookup found no path for the
	// destination; the packet never reached a pipe.
	DropUnreachable
	// DropOversize means a live-edge ingress datagram exceeded the
	// gateway's datagram bound.
	DropOversize
	// DropGatewayReject means the live-edge gateway rejected a datagram
	// for any other reason (unmapped flow, ingress queue full).
	DropGatewayReject

	// numDropReasons sizes per-reason counters.
	numDropReasons
)

// NumDropReasons is the size of a complete per-reason drop counter vector
// (indexable by DropReason).
const NumDropReasons = int(numDropReasons)

func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "none"
	case DropBacklog:
		return "backlog"
	case DropRandomLoss:
		return "loss"
	case DropRED:
		return "red"
	case DropLinkDown:
		return "link-down"
	case DropUnreachable:
		return "unreachable"
	case DropOversize:
		return "oversize"
	case DropGatewayReject:
		return "gateway-reject"
	}
	return "unknown"
}
