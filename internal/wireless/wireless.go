// Package wireless is the ad hoc wireless extension the paper describes in
// §5: it replaces the wired pipe network with a broadcast medium — a
// transmission consumes bandwidth at every node within communication range
// of the sender — and adds node mobility, under which topology change is
// the rule rather than the exception.
//
// The medium implements the same Injector/Registrar contract as the wired
// emulator, so unmodified netstack hosts (UDP, TCP, RPC) run over it.
package wireless

import (
	"math"
	"math/rand"

	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// Config describes the shared medium and the arena.
type Config struct {
	BitRate   float64        // channel rate, bits/s (e.g. 11e6 for 802.11b)
	Range     float64        // communication radius, meters
	Width     float64        // arena width, meters
	Height    float64        // arena height, meters
	PropDelay vtime.Duration // per-transmission propagation delay
	LossRate  float64        // random per-receiver loss
	Seed      int64
	// Mobility: random-waypoint speed range; zero disables movement.
	SpeedMin, SpeedMax float64        // meters/second
	MoveTick           vtime.Duration // position update period (default 100 ms)
}

func (c *Config) defaults() {
	if c.BitRate <= 0 {
		c.BitRate = 11e6
	}
	if c.Range <= 0 {
		c.Range = 250
	}
	if c.Width <= 0 {
		c.Width = 1000
	}
	if c.Height <= 0 {
		c.Height = 1000
	}
	if c.MoveTick <= 0 {
		c.MoveTick = 100 * vtime.Millisecond
	}
}

// node is one station: a position, a waypoint, and a delivery callback.
type node struct {
	vn      pipes.VN
	x, y    float64
	wx, wy  float64 // current waypoint
	speed   float64
	deliver func(*pipes.Packet)

	// busyUntil models the station's view of the channel (carrier sense):
	// a sender defers to ongoing transmissions it can hear.
	busyUntil vtime.Time

	Sent, Rcvd, Collisions uint64
}

// Medium is the shared broadcast channel plus the station population.
type Medium struct {
	cfg   Config
	sched *vtime.Scheduler
	rng   *rand.Rand
	nodes map[pipes.VN]*node
	order []pipes.VN // deterministic iteration
	mover *vtime.Ticker
	seq   uint64

	Broadcasts uint64
	Unicasts   uint64
	DropsRange uint64
}

// NewMedium creates a wireless medium.
func NewMedium(sched *vtime.Scheduler, cfg Config) *Medium {
	cfg.defaults()
	m := &Medium{
		cfg:   cfg,
		sched: sched,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		nodes: make(map[pipes.VN]*node),
	}
	m.mover = vtime.NewTicker(sched, cfg.MoveTick, m.step)
	if cfg.SpeedMax > 0 {
		m.mover.Start()
	}
	return m
}

// AddNode places a station at (x, y).
func (m *Medium) AddNode(vn pipes.VN, x, y float64) {
	n := &node{vn: vn, x: x, y: y}
	n.wx, n.wy = m.waypoint()
	n.speed = m.speed()
	m.nodes[vn] = n
	m.order = append(m.order, vn)
}

// AddNodeRandom places a station uniformly at random in the arena.
func (m *Medium) AddNodeRandom(vn pipes.VN) {
	m.AddNode(vn, m.rng.Float64()*m.cfg.Width, m.rng.Float64()*m.cfg.Height)
}

// Position returns a station's current coordinates.
func (m *Medium) Position(vn pipes.VN) (x, y float64) {
	n := m.nodes[vn]
	if n == nil {
		return 0, 0
	}
	return n.x, n.y
}

// RegisterVN installs the delivery callback (Registrar contract).
func (m *Medium) RegisterVN(vn pipes.VN, fn func(*pipes.Packet)) {
	if n := m.nodes[vn]; n != nil {
		n.deliver = fn
	}
}

// InRange reports whether two stations can currently hear each other.
func (m *Medium) InRange(a, b pipes.VN) bool {
	na, nb := m.nodes[a], m.nodes[b]
	if na == nil || nb == nil {
		return false
	}
	return dist(na, nb) <= m.cfg.Range
}

// Neighbors returns all stations currently within range of vn.
func (m *Medium) Neighbors(vn pipes.VN) []pipes.VN {
	src := m.nodes[vn]
	if src == nil {
		return nil
	}
	var out []pipes.VN
	for _, id := range m.order {
		if id == vn {
			continue
		}
		if dist(src, m.nodes[id]) <= m.cfg.Range {
			out = append(out, id)
		}
	}
	return out
}

// Inject implements the netstack Injector: a unicast transmission that
// still occupies the channel at every station in range of the sender (the
// broadcast nature of wireless). Returns false when the destination is out
// of range or the channel is hopelessly backlogged.
func (m *Medium) Inject(src, dst pipes.VN, size int, payload any) bool {
	s := m.nodes[src]
	d := m.nodes[dst]
	if s == nil || d == nil {
		return false
	}
	if dist(s, d) > m.cfg.Range {
		m.DropsRange++
		return false
	}
	m.Unicasts++
	return m.transmit(s, size, func(pkt *pipes.Packet) {
		if m.rng.Float64() < m.cfg.LossRate {
			return
		}
		// Re-check range at delivery: mobility may have broken the link.
		if dist(s, d) > m.cfg.Range {
			m.DropsRange++
			return
		}
		if d.deliver != nil {
			d.Rcvd++
			d.deliver(pkt)
		}
	}, src, dst, payload)
}

// Broadcast transmits to every station in range. Every receiver is handed
// the same payload, so it must be one no receiver recycles: an application
// value, not a *netstack.Segment or *netstack.Datagram, which the first
// host to see it releases.
func (m *Medium) Broadcast(src pipes.VN, size int, payload any) bool {
	s := m.nodes[src]
	if s == nil {
		return false
	}
	m.Broadcasts++
	return m.transmit(s, size, func(pkt *pipes.Packet) {
		for _, id := range m.order {
			n := m.nodes[id]
			if n == s || dist(s, n) > m.cfg.Range {
				continue
			}
			if m.rng.Float64() < m.cfg.LossRate {
				continue
			}
			if n.deliver != nil {
				n.Rcvd++
				n.deliver(pkt)
			}
		}
	}, src, -1, payload)
}

// transmit serializes on the channel as heard at the sender and charges
// airtime at every station in range — the defining property of the
// extension: "packet transmission consumes bandwidth at all nodes within
// communication range of the sender".
func (m *Medium) transmit(s *node, size int, deliver func(*pipes.Packet), src, dst pipes.VN, payload any) bool {
	now := m.sched.Now()
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	if start.Sub(now) > 50*vtime.Millisecond {
		return false // channel saturated: queue bound exceeded
	}
	air := vtime.DurationOf(float64(size*8) / m.cfg.BitRate)
	end := start.Add(air)
	// Airtime occupies the channel at every station that can hear the
	// sender (hidden terminals are not modeled; see package doc).
	for _, id := range m.order {
		n := m.nodes[id]
		if n == s || dist(s, n) <= m.cfg.Range {
			if end > n.busyUntil {
				n.busyUntil = end
			}
		}
	}
	s.Sent++
	m.seq++
	pkt := &pipes.Packet{Seq: m.seq, Size: size, Src: src, Dst: dst, Payload: payload, Injected: now}
	m.sched.At(end.Add(m.cfg.PropDelay), func() { deliver(pkt) })
	return true
}

// step advances every station toward its waypoint (random waypoint model).
func (m *Medium) step() {
	dt := m.cfg.MoveTick.Seconds()
	for _, id := range m.order {
		n := m.nodes[id]
		if n.speed <= 0 {
			continue
		}
		dx, dy := n.wx-n.x, n.wy-n.y
		d := math.Hypot(dx, dy)
		hop := n.speed * dt
		if d <= hop {
			n.x, n.y = n.wx, n.wy
			n.wx, n.wy = m.waypoint()
			n.speed = m.speed()
			continue
		}
		n.x += dx / d * hop
		n.y += dy / d * hop
	}
}

func (m *Medium) waypoint() (float64, float64) {
	return m.rng.Float64() * m.cfg.Width, m.rng.Float64() * m.cfg.Height
}

func (m *Medium) speed() float64 {
	if m.cfg.SpeedMax <= 0 {
		return 0
	}
	return m.cfg.SpeedMin + m.rng.Float64()*(m.cfg.SpeedMax-m.cfg.SpeedMin)
}

func dist(a, b *node) float64 {
	return math.Hypot(a.x-b.x, a.y-b.y)
}
