// Package traffic provides workload generators and network-condition
// manipulation: a netperf-style bulk TCP source and sink, a synthetic
// web-trace generator (the §5.2 IBM trace substitute), and
// fault/perturbation schedules.
package traffic

import (
	"modelnet/internal/netstack"
	"modelnet/internal/vtime"
)

// Sink is a netserver-style TCP receiver that counts bytes per connection.
type Sink struct {
	host *netstack.Host
	port uint16

	Flows      []*FlowStats
	TotalBytes uint64
}

// FlowStats tracks one received flow.
type FlowStats struct {
	From    netstack.Endpoint
	Bytes   uint64
	First   vtime.Time
	Last    vtime.Time
	started bool
	Closed  bool
}

// Throughput returns the flow's average goodput in bits/s over its active
// window (0 when degenerate).
func (f *FlowStats) Throughput() float64 {
	el := f.Last.Sub(f.First).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(f.Bytes*8) / el
}

// NewSink starts listening on (h, port).
func NewSink(h *netstack.Host, port uint16) (*Sink, error) {
	s := &Sink{host: h, port: port}
	_, err := h.Listen(port, func(c *netstack.Conn) netstack.Handlers {
		fs := &FlowStats{From: c.Remote}
		s.Flows = append(s.Flows, fs)
		return netstack.Handlers{
			OnData: func(c *netstack.Conn, n int, data []byte) {
				now := h.Scheduler().Now()
				if !fs.started {
					fs.started = true
					fs.First = now
				}
				fs.Last = now
				fs.Bytes += uint64(n)
				s.TotalBytes += uint64(n)
			},
			OnClose: func(c *netstack.Conn, err error) { fs.Closed = true },
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Bulk is a netperf-style TCP bulk sender.
type Bulk struct {
	Conn *netstack.Conn
}

// Unbounded makes a bulk flow effectively infinite.
const Unbounded = 1 << 42

// StartBulk opens a TCP connection from h to dst and streams total
// synthetic bytes (use Unbounded for an open-ended flow). The connection
// closes after the last byte when total is bounded.
func StartBulk(h *netstack.Host, dst netstack.Endpoint, total int) *Bulk {
	b := &Bulk{}
	b.Conn = h.Dial(dst, netstack.Handlers{})
	b.Conn.WriteCount(total)
	if total < Unbounded {
		b.Conn.Close()
	}
	return b
}
