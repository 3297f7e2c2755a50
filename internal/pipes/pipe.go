package pipes

import (
	"fmt"
	"math"
	"math/rand"

	"modelnet/internal/vtime"
)

// DefaultQueuePkts is the queue capacity used when a link specifies none;
// it matches dummynet's default of 50 slots.
const DefaultQueuePkts = 50

// Params are the emulation parameters of one pipe. They may be changed
// while the emulation runs (dynamic network characteristics, §4.3);
// internal/dynamics schedules such changes as virtual-time events.
//
// A BandwidthBps that is zero, negative, +Inf, or NaN means "infinite
// bandwidth": transmission takes no time and only Latency delays the packet.
// This is the only sane reading of the zero value and makes trace gaps and
// hand-built Params safe by construction (a division by zero would otherwise
// produce +Inf/NaN exit times that poison the pipe heap).
type Params struct {
	BandwidthBps float64        // link rate, bits per second (<=0/Inf/NaN = infinite)
	Latency      vtime.Duration // one-way propagation delay
	LossRate     float64        // [0,1) random drop probability
	QueuePkts    int            // transmission queue capacity in packets
	RED          *REDParams     // nil = drop-tail FIFO
	// Down administratively fails the link: every new packet is dropped
	// with DropLinkDown while in-flight packets drain on their original
	// schedule — the paper's link-failure semantics, driven by
	// internal/dynamics.
	Down bool
}

func (p Params) queueCap() int {
	if p.QueuePkts <= 0 {
		return DefaultQueuePkts
	}
	return p.QueuePkts
}

// entry is one packet inside the pipe: waiting to transmit until txDone,
// then on the delay line until exit.
type entry struct {
	pkt    *Packet
	txDone vtime.Time
	exit   vtime.Time
}

// Pipe is one emulated link. Not safe for concurrent use; all access happens
// on the single emulation event loop.
type Pipe struct {
	id     ID
	params Params

	q      []entry // FIFO: [txHead:) still transmitting-or-waiting, earlier are on the delay line
	head   int     // index of first live entry in q
	txHead int     // index of first entry with txDone > now (lazily advanced)

	lastTxDone vtime.Time // when the transmitter becomes free
	lastExit   vtime.Time // latest exit handed out; keeps the delay line FIFO
	seed       int64
	rng        *rand.Rand // built on first draw: ~5 KB of generator state
	draws      uint64     // Float64 draws taken; positions the rng in a snapshot
	red        redState

	// heapIdx is 1 + the pipe's position in the Heap tracking it, 0 when no
	// heap does. Owned by Heap; the zero value is "untracked".
	heapIdx int

	// Stats.
	Accepted  uint64
	Drops     [numDropReasons]uint64 // indexed by DropReason
	BytesIn   uint64
	BytesOut  uint64
	Delivered uint64
}

// Init makes p a new, empty pipe with the given identity and parameters,
// whatever it held before; it is the one way a pipe is initialised, so a
// slab of pipes (emucore keeps its pipes in one []Pipe) and New agree. seed
// determinizes the pipe's random loss and RED decisions. The generator
// itself is built on first draw: its state dwarfs the rest of the pipe, and
// at 10⁵-link scale most pipes never make a random decision.
func (p *Pipe) Init(id ID, params Params, seed int64) {
	*p = Pipe{id: id, params: params, seed: seed}
	p.red.init()
}

// New allocates one pipe and Inits it.
func New(id ID, params Params, seed int64) *Pipe {
	p := new(Pipe)
	p.Init(id, params, seed)
	return p
}

// random returns the pipe's deterministic generator, building it on first
// use. The draw sequence is a function of (seed, id) alone, so a pipe that
// turns lossy mid-run (dynamics) sees the same sequence it would have seen
// with an eager generator.
func (p *Pipe) random() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed ^ int64(p.id)*0x1e3779b97f4a7c15))
	}
	return p.rng
}

// roll takes one draw from the pipe's generator. All random decisions (loss,
// RED) go through roll so the draw count positions the generator exactly:
// a restored pipe replays draws discarded draws and continues the sequence.
func (p *Pipe) roll() float64 {
	p.draws++
	return p.random().Float64()
}

// ID returns the pipe's identity.
func (p *Pipe) ID() ID { return p.id }

// Params returns the current parameters.
func (p *Pipe) Params() Params { return p.params }

// SetParams installs new parameters. In-flight packets keep the schedule
// they were assigned on entry; subsequent packets see the new values. This
// is the mechanism behind synthetic cross traffic and fault injection.
func (p *Pipe) SetParams(params Params) { p.params = params }

// Len reports the number of packets inside the pipe (queue + delay line).
func (p *Pipe) Len() int { return len(p.q) - p.head }

// QueueLen reports packets still waiting for (or in) transmission at time
// now — the population the drop policies act on.
func (p *Pipe) QueueLen(now vtime.Time) int {
	p.advanceTx(now)
	return len(p.q) - p.txHead
}

func (p *Pipe) advanceTx(now vtime.Time) {
	for p.txHead < len(p.q) && p.q[p.txHead].txDone <= now {
		p.txHead++
	}
}

// Enqueue offers a packet to the pipe at time now. It returns DropNone and
// the packet's exit time on acceptance, or the drop reason. Drops here are
// *emulated* ("virtual") drops: the target network would have dropped the
// packet too.
func (p *Pipe) Enqueue(pkt *Packet, now vtime.Time) (DropReason, vtime.Time) {
	// A failed link blackholes everything offered to it, before any other
	// policy: no medium, no loss process, no queue.
	if p.params.Down {
		p.Drops[DropLinkDown]++
		return DropLinkDown, 0
	}

	// Random loss first: it models lossy media, independent of queueing.
	if p.params.LossRate > 0 && p.roll() < p.params.LossRate {
		p.Drops[DropRandomLoss]++
		return DropRandomLoss, 0
	}

	qlen := p.QueueLen(now)
	if p.params.RED != nil {
		if p.red.shouldDrop(p.params.RED, qlen, now, p.roll) {
			p.Drops[DropRED]++
			return DropRED, 0
		}
	}
	if qlen >= p.params.queueCap() {
		p.Drops[DropBacklog]++
		return DropBacklog, 0
	}

	// Time to drain every earlier queued byte plus this packet at the
	// pipe's bandwidth (§2.2), then ride the delay line.
	txStart := now
	if p.lastTxDone > txStart {
		txStart = p.lastTxDone
	}
	txTime := vtime.Duration(0)
	if bw := p.params.BandwidthBps; bw > 0 && !math.IsInf(bw, 1) {
		txTime = vtime.Duration(float64(pkt.Size*8) / bw * float64(vtime.Second))
		// Guard the conversion, not just the sign: a NaN bandwidth (or a
		// float overflow) yields a NaN/huge txTime whose comparisons are
		// all false, which would corrupt lastTxDone for every later packet.
		if !(txTime > 0) || !(txTime < vtime.Duration(math.MaxInt64)) {
			txTime = 0
		}
	}
	txDone := txStart.Add(txTime)
	exit := txDone.Add(p.params.Latency)
	// The delay line is FIFO, as in dummynet: when a latency cut (dynamics)
	// would let this packet leave before an earlier one, it instead exits
	// right behind it. Without this, packets exit out of FIFO order and
	// execution modes that forward each packet at its own exit time diverge
	// from the sequential head-of-line dequeuer.
	if exit < p.lastExit {
		exit = p.lastExit
	}
	p.lastExit = exit
	p.lastTxDone = txDone
	p.q = append(p.q, entry{pkt: pkt, txDone: txDone, exit: exit})
	p.Accepted++
	p.BytesIn += uint64(pkt.Size)
	return DropNone, exit
}

// NextDeadline returns the exit time of the pipe's earliest packet, or
// vtime.Forever when the pipe is empty. This is the key the core's pipe
// heap sorts on.
func (p *Pipe) NextDeadline() vtime.Time {
	if p.head >= len(p.q) {
		return vtime.Forever
	}
	return p.q[p.head].exit
}

// DequeueNext pops the head packet if its exit time is ≤ now and returns it
// with its exact (unquantized) exit time. When nothing is due it returns nil
// and closes the drain: an emptied pipe starts its RED idle period and the
// queue's dead prefix is reclaimed. A drain is therefore a loop that calls
// DequeueNext until it returns nil.
func (p *Pipe) DequeueNext(now vtime.Time) (*Packet, vtime.Time) {
	if p.head < len(p.q) && p.q[p.head].exit <= now {
		e := p.q[p.head]
		p.q[p.head] = entry{} // release reference
		p.head++
		p.Delivered++
		p.BytesOut += uint64(e.pkt.Size)
		return e.pkt, e.exit
	}
	if p.head == len(p.q) {
		p.red.markIdle(now)
	}
	p.compact()
	return nil, 0
}

// DequeueReady drains the pipe at time now: it invokes deliver for each
// packet DequeueNext yields, in FIFO order, and returns the number delivered.
func (p *Pipe) DequeueReady(now vtime.Time, deliver func(*Packet, vtime.Time)) int {
	n := 0
	for pkt, exit := p.DequeueNext(now); pkt != nil; pkt, exit = p.DequeueNext(now) {
		n++
		deliver(pkt, exit)
	}
	return n
}

// ScanEntries visits every packet inside the pipe in FIFO order with its
// scheduled exit time. The visitor must not mutate the pipe. O(Len).
func (p *Pipe) ScanEntries(visit func(pkt *Packet, exit vtime.Time)) {
	for i := p.head; i < len(p.q); i++ {
		visit(p.q[i].pkt, p.q[i].exit)
	}
}

func (p *Pipe) compact() {
	if p.head == len(p.q) {
		p.q = p.q[:0]
		p.head = 0
		p.txHead = 0
		return
	}
	// Reclaim space once the dead prefix dominates.
	if p.head > 64 && p.head*2 > len(p.q) {
		n := copy(p.q, p.q[p.head:])
		for i := n; i < len(p.q); i++ {
			p.q[i] = entry{}
		}
		p.q = p.q[:n]
		p.txHead -= p.head
		if p.txHead < 0 {
			p.txHead = 0
		}
		p.head = 0
	}
}

// TotalDrops reports the sum of all emulated drops.
func (p *Pipe) TotalDrops() uint64 {
	var n uint64
	for _, d := range p.Drops {
		n += d
	}
	return n
}

func (p *Pipe) String() string {
	return fmt.Sprintf("pipe %d: %.1f Mb/s, %v, loss %.4f, q%d (len %d)",
		p.id, p.params.BandwidthBps/1e6, p.params.Latency, p.params.LossRate,
		p.params.queueCap(), p.Len())
}
