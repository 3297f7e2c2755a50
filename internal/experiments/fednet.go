package experiments

// Federated scenarios and the fednet scaling study. Four workloads register
// with the federation runtime (internal/fednet):
//
//   - "ring-cbr": the parcore study's saturating CBR ring (UDP, nil
//     payloads), the cross-mode determinism yardstick.
//   - "gnutella-ring": a gnutella ping flood over a ring of routers with
//     jittered link latencies, exercising application payload codecs and
//     bursty cross-core traffic.
//   - "cfs-ring": the §5.1 CFS/DHash store spread over a ring — Chord
//     lookups and block fetches ride the UDP RPC layer, whose frames nest
//     application bodies (the recursive payload registry at work).
//   - "webrepl-ring": the §5.2 web service under loss — real netstack TCP
//     connections (handshakes, RTO/retransmit state, message markers)
//     cross core-process boundaries as Segment payloads.
//
// Every scenario is a pure function of its parameters: the coordinator and
// all three execution modes (sequential, in-process parallel, N-process
// federated) derive the same topology, the same per-VN plan, and install it
// identically — which is what makes the byte-identical determinism tests in
// determinism_test.go possible.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"modelnet"
	"modelnet/internal/apps/cfs"
	"modelnet/internal/apps/chord"
	"modelnet/internal/apps/gnutella"
	"modelnet/internal/apps/webrepl"
	"modelnet/internal/dynamics"
	"modelnet/internal/fednet"
	"modelnet/internal/netstack"
	"modelnet/internal/obs"
	"modelnet/internal/pipes"
	"modelnet/internal/stats"
	"modelnet/internal/traffic"
	"modelnet/internal/vtime"
)

// Registered federation scenario names.
const (
	ScenarioRingCBR     = "ring-cbr"
	ScenarioGnutella    = "gnutella-ring"
	ScenarioCFSRing     = "cfs-ring"
	ScenarioWebReplRing = "webrepl-ring"
)

// ---------------------------------------------------------------------------
// ring-cbr

// RingCBRSpec parameterizes the saturating CBR ring workload,
// mode-independently. It doubles as the federation scenario's JSON params.
type RingCBRSpec struct {
	Routers       int     `json:"routers"`
	VNsPerRouter  int     `json:"vns_per_router"`
	PacketsPerSec float64 `json:"packets_per_sec"` // per-VN CBR rate
	PacketBytes   int     `json:"packet_bytes"`
	DurationSec   float64 `json:"duration_sec"` // injection window
	Seed          int64   `json:"seed"`
}

// drain is the extra virtual time after the injection window that lets
// in-flight traffic finish, making the counters insensitive to where the
// cutoff slices.
const ringCBRDrainSec = 0.5

// RunFor is the virtual time a run of this spec must cover.
func (c RingCBRSpec) RunFor() modelnet.Duration {
	return modelnet.Seconds(c.DurationSec + ringCBRDrainSec)
}

// Topology builds the gigabit ring: aggregate offered load stays well under
// capacity so there are zero virtual drops and the cross-mode comparison is
// exact regardless of how same-nanosecond arrivals interleave.
func (c RingCBRSpec) Topology() *modelnet.Graph {
	ringAttr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(1000), LatencySec: modelnet.Ms(5), QueuePkts: 400}
	accessAttr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(10), LatencySec: modelnet.Ms(1), QueuePkts: 100}
	return modelnet.Ring(c.Routers, c.VNsPerRouter, ringAttr, accessAttr)
}

// Install sets up the workload for every VN the caller owns: a sink on port
// 9 and a CBR flow to the same client slot on the diametrically opposite
// router, so every packet traverses half the ring. The per-VN phase and
// rate jitter is drawn for the whole population in VN order, so any subset
// installs values identical to a full install.
func (c RingCBRSpec) Install(n int, homed func(pipes.VN) bool,
	host func(pipes.VN) *netstack.Host, sched func(pipes.VN) *vtime.Scheduler) error {
	rng := rand.New(rand.NewSource(c.Seed))
	period := vtime.DurationOf(1 / c.PacketsPerSec)
	starts := make([]vtime.Duration, n)
	jitters := make([]vtime.Duration, n)
	for v := range starts {
		// Nanosecond-jittered phase and rate de-synchronize the flows.
		starts[v] = vtime.Duration(rng.Int63n(int64(period)))
		jitters[v] = vtime.Duration(rng.Int63n(int64(period / 8)))
	}
	sendEnd := vtime.Time(0).Add(vtime.DurationOf(c.DurationSec))
	for v := 0; v < n; v++ {
		vn := pipes.VN(v)
		if !homed(vn) {
			continue
		}
		h := host(vn)
		if _, err := h.OpenUDP(9, nil); err != nil {
			return err
		}
		s, err := h.OpenUDP(0, nil)
		if err != nil {
			return err
		}
		dst := modelnet.Endpoint{VN: modelnet.VN((v + n/2) % n), Port: 9}
		jitter := jitters[v]
		size := c.PacketBytes
		sc := sched(vn)
		// Injection stops before the deadline so the run drains: every
		// offered packet is delivered or dropped by the end. Each pacing
		// event sends only from its own VN, so it carries that owner claim.
		var send func()
		send = func() {
			s.SendTo(dst, size, nil)
			if next := sc.Now().Add(period + jitter); next < sendEnd {
				sc.AtTagged(next, int32(vn), send)
			}
		}
		sc.AtTagged(sc.Now().Add(starts[v]), int32(vn), send)
	}
	return nil
}

// ---------------------------------------------------------------------------
// gnutella-ring

// GnutellaRingSpec parameterizes a gnutella ping flood over a ring of
// routers (servents spread across them, so the flood genuinely crosses
// cores — unlike the §4.3 star, which one core owns whole).
type GnutellaRingSpec struct {
	Routers      int     `json:"routers"`
	VNsPerRouter int     `json:"vns_per_router"`
	Degree       int     `json:"degree"`
	TTL          int     `json:"ttl"`
	WindowSec    float64 `json:"window_sec"`
	Seed         int64   `json:"seed"`
}

// Servents is the overlay population.
func (c GnutellaRingSpec) Servents() int { return c.Routers * c.VNsPerRouter }

// RunFor covers the reachability window plus settling time (as in the §4.3
// scale study).
func (c GnutellaRingSpec) RunFor() modelnet.Duration {
	return modelnet.Seconds(c.WindowSec + 5)
}

// Topology builds the ring with per-link latency jitter: real populations
// are not metronomes, and distinct per-link delays keep the flood's
// wavefronts from colliding in the same nanosecond — which is what lets all
// three runtimes agree packet-for-packet.
func (c GnutellaRingSpec) Topology() *modelnet.Graph {
	ringAttr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(100), LatencySec: modelnet.Ms(5), QueuePkts: 400}
	accessAttr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(10), LatencySec: modelnet.Ms(1), QueuePkts: 200}
	g := modelnet.Ring(c.Routers, c.VNsPerRouter, ringAttr, accessAttr)
	latRng := rand.New(rand.NewSource(c.Seed ^ 0x5ca1e))
	for i := range g.Links {
		a := g.Links[i].Attr
		a.LatencySec *= 0.8 + 0.4*latRng.Float64()
		g.Links[i].Attr = a
	}
	return g
}

// NeighborPlan derives the overlay adjacency the way the §4.3 scale study
// wires it — a random spanning tree plus random extra edges — as ordered
// per-servent endpoint lists. The list order matters (it is the flood's
// fan-out order), so the plan replays the exact connect sequence.
func (c GnutellaRingSpec) NeighborPlan() [][]netstack.Endpoint {
	n := c.Servents()
	rng := rand.New(rand.NewSource(c.Seed))
	nbrs := make([][]netstack.Endpoint, n)
	add := func(a, b int) {
		ep := netstack.Endpoint{VN: pipes.VN(b), Port: 6346}
		for _, e := range nbrs[a] {
			if e == ep {
				return
			}
		}
		nbrs[a] = append(nbrs[a], ep)
	}
	connect := func(a, b int) { add(a, b); add(b, a) }
	for i := 1; i < n; i++ {
		connect(i, rng.Intn(i))
	}
	for i := 0; i < n*(c.Degree-2)/2; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			connect(a, b)
		}
	}
	return nbrs
}

// GnutellaRingReport is the scenario's measurement: connectivity from
// servent 0 plus flood load, summed over the installing process's peers.
type GnutellaRingReport struct {
	Reachable  int    `json:"reachable"`
	Forwarded  uint64 `json:"forwarded"`
	Duplicates uint64 `json:"duplicates"`
}

// Merge folds another process's report in.
func (r *GnutellaRingReport) Merge(o GnutellaRingReport) {
	if o.Reachable > r.Reachable {
		r.Reachable = o.Reachable
	}
	r.Forwarded += o.Forwarded
	r.Duplicates += o.Duplicates
}

// Install builds the homed slice of the overlay and, on the process homing
// servent 0, starts the reachability flood. The returned closure reports
// this slice's results after the run.
func (c GnutellaRingSpec) Install(n int, homed func(pipes.VN) bool,
	host func(pipes.VN) *netstack.Host) (func() GnutellaRingReport, error) {
	nbrs := c.NeighborPlan()
	rep := &GnutellaRingReport{}
	var peers []*gnutella.Peer
	for v := 0; v < n; v++ {
		vn := pipes.VN(v)
		if !homed(vn) {
			continue
		}
		p, err := gnutella.NewPeer(host(vn), v, gnutella.Config{DefaultTTL: c.TTL})
		if err != nil {
			return nil, err
		}
		for _, ep := range nbrs[v] {
			p.Connect(ep)
		}
		peers = append(peers, p)
		if v == 0 {
			p.Reachability(vtime.DurationOf(c.WindowSec), func(count int) { rep.Reachable = count })
		}
	}
	return func() GnutellaRingReport {
		for _, p := range peers {
			rep.Forwarded += p.Forwarded
			rep.Duplicates += p.Duplicates
		}
		return *rep
	}, nil
}

// ---------------------------------------------------------------------------
// cfs-ring

// CFSRingSpec parameterizes the federated CFS workload: one CFS/DHash peer
// per VN of a router ring, a file striped over the population by ring
// position, and a set of nodes downloading it with a prefetch window. All
// traffic is Chord + block-fetch RPC over the UDP stack; the RPC frames
// nest their application bodies, so every cross-core packet exercises the
// recursive payload codecs.
type CFSRingSpec struct {
	Routers      int     `json:"routers"`
	VNsPerRouter int     `json:"vns_per_router"`
	FileKB       int     `json:"file_kb"`
	WindowKB     int     `json:"window_kb"`    // prefetch window (the Fig. 7 knob)
	Downloaders  []int   `json:"downloaders"`  // VN indices that fetch the file
	DurationSec  float64 `json:"duration_sec"` // total emulated time
	Seed         int64   `json:"seed"`
}

const cfsRingFile = "cfs-ring-file"

// Peers is the CFS population (one peer per VN).
func (c CFSRingSpec) Peers() int { return c.Routers * c.VNsPerRouter }

// RunFor is the virtual time a run of this spec must cover (downloads
// finish well before; the remainder is steady-state Chord maintenance,
// identical in every mode).
func (c CFSRingSpec) RunFor() modelnet.Duration { return modelnet.Seconds(c.DurationSec) }

// Topology builds the ring: fast core links, 10 Mb/s access links — the
// block-transfer bottleneck, as in the §5.1 RON mesh.
func (c CFSRingSpec) Topology() *modelnet.Graph {
	ringAttr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(100), LatencySec: modelnet.Ms(5), QueuePkts: 200}
	accessAttr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(10), LatencySec: modelnet.Ms(1), QueuePkts: 100}
	return modelnet.Ring(c.Routers, c.VNsPerRouter, ringAttr, accessAttr)
}

// RingRefs derives the full Chord membership — IDs from the VN index,
// endpoints from the default Chord port — identically on every process.
func (c CFSRingSpec) RingRefs(n int) ([]chord.ID, []chord.Ref) {
	ids := make([]chord.ID, n)
	refs := make([]chord.Ref, n)
	for v := 0; v < n; v++ {
		ids[v] = chord.HashString(fmt.Sprintf("cfs-ring-%d", v))
		refs[v] = chord.Ref{ID: ids[v], Addr: netstack.Endpoint{VN: pipes.VN(v), Port: 4000}}
	}
	return ids, refs
}

// CFSRingDownload is one downloader's outcome.
type CFSRingDownload struct {
	Node      int     `json:"node"`
	Done      bool    `json:"done"`
	Bytes     int     `json:"bytes"`
	Blocks    int     `json:"blocks"`
	Failed    int     `json:"failed"`
	Hops      int     `json:"hops"` // total Chord lookup hops
	SpeedKBps float64 `json:"speed_kbps"`
}

// CFSRingReport is the scenario's measurement, summed over the installing
// process's peers.
type CFSRingReport struct {
	Downloads    []CFSRingDownload `json:"downloads"`
	BlocksServed uint64            `json:"blocks_served"`
}

// Merge folds another process's report in, keeping downloads sorted.
func (r *CFSRingReport) Merge(o CFSRingReport) {
	r.Downloads = append(r.Downloads, o.Downloads...)
	sort.Slice(r.Downloads, func(i, j int) bool { return r.Downloads[i].Node < r.Downloads[j].Node })
	r.BlocksServed += o.BlocksServed
}

// Install builds the homed slice of the CFS deployment: peers with
// offline-bootstrapped Chord state, the homed share of the striped file,
// and the homed downloaders' fetches. The returned closure reports this
// slice's results after the run.
func (c CFSRingSpec) Install(n int, homed func(pipes.VN) bool,
	host func(pipes.VN) *netstack.Host) (func() CFSRingReport, error) {
	ids, refs := c.RingRefs(n)
	blocks := cfs.FileBlocks(cfsRingFile, c.FileKB<<10)
	owners := cfs.BlockOwners(ids, blocks)
	peers := make(map[pipes.VN]*cfs.Peer)
	for v := 0; v < n; v++ {
		vn := pipes.VN(v)
		if !homed(vn) {
			continue
		}
		// Generous RPC budget: lookups queue behind block transfers. The
		// maintenance periods are era-typical (Chord deployments stabilized
		// on tens of seconds); with every peer bootstrapped at t=0 the
		// tickers fire in synchronized sparse bursts, which is what makes
		// the post-download tail of the run mostly idle.
		p, err := cfs.NewPeer(host(vn), ids[v], chord.Config{
			RPCTimeout: 2 * vtime.Second, RPCRetries: 3,
			StabilizeEvery: 15 * vtime.Second, FixFingerEvery: 15 * vtime.Second,
		})
		if err != nil {
			return nil, err
		}
		p.Chord.Bootstrap(refs)
		p.Chord.StartMaintenance()
		peers[vn] = p
	}
	for i, o := range owners {
		if p, ok := peers[pipes.VN(o)]; ok {
			p.StoreLocal(blocks[i], cfs.BlockBytes(c.FileKB<<10, i, len(blocks)))
		}
	}
	rep := &CFSRingReport{}
	for k, dv := range c.Downloaders {
		if dv < 0 || dv >= n {
			return nil, fmt.Errorf("cfs-ring: downloader VN %d outside population of %d", dv, n)
		}
		p, ok := peers[pipes.VN(dv)]
		if !ok {
			continue
		}
		idx := len(rep.Downloads)
		rep.Downloads = append(rep.Downloads, CFSRingDownload{Node: dv})
		// Staggered starts keep the downloads from opening in the same
		// nanosecond while still contending for the ring. The fetch issues
		// RPCs only from the downloader's own host, hence the owner claim.
		start := vtime.DurationOf(0.1) + vtime.Duration(k)*vtime.DurationOf(0.05)
		sc := p.Host().Scheduler()
		sc.AtTagged(sc.Now().Add(start), int32(dv), func() {
			p.Fetch(blocks, c.WindowKB<<10, func(r cfs.FetchResult) {
				d := &rep.Downloads[idx]
				d.Done = true
				d.Bytes = r.Bytes
				d.Blocks = r.Blocks
				d.Failed = r.Failed
				d.Hops = r.LookupHops
				d.SpeedKBps = r.SpeedKBps
			})
		})
	}
	return func() CFSRingReport {
		// Idempotent snapshot: rep itself is never mutated, and downloads
		// come out sorted by node so a merged federated report compares
		// byte-for-byte with a sequential one regardless of Downloaders
		// order or shard interleaving.
		out := CFSRingReport{Downloads: append([]CFSRingDownload(nil), rep.Downloads...)}
		sort.Slice(out.Downloads, func(i, j int) bool { return out.Downloads[i].Node < out.Downloads[j].Node })
		for v := 0; v < n; v++ {
			if p, ok := peers[pipes.VN(v)]; ok {
				out.BlocksServed += p.BlocksServed
			}
		}
		return out
	}, nil
}

// ---------------------------------------------------------------------------
// webrepl-ring

// WebReplRingSpec parameterizes the federated web-replica workload: VN
// slot 0 of every router serves (webrepl.Server), the remaining VNs play a
// synthesized request trace against the server diametrically across the
// ring — so every connection's segments cross the cut under a contiguous
// partition — over lossy ring links that force TCP retransmission and RTO
// state to span core processes.
type WebReplRingSpec struct {
	Routers      int     `json:"routers"`
	VNsPerRouter int     `json:"vns_per_router"` // slot 0 serves, the rest are clients
	LossPct      float64 `json:"loss_pct"`       // ring-link loss percentage
	TraceSec     float64 `json:"trace_sec"`
	MinRate      float64 `json:"min_rate"` // requests/second, whole population
	MaxRate      float64 `json:"max_rate"`
	MedianSize   int     `json:"median_size"` // response bytes
	DrainSec     float64 `json:"drain_sec"`   // settle time after the trace
	Seed         int64   `json:"seed"`
}

// Clients is the trace-playing population (every non-server VN).
func (c WebReplRingSpec) Clients() int { return c.Routers * (c.VNsPerRouter - 1) }

// RunFor covers the trace plus drain.
func (c WebReplRingSpec) RunFor() modelnet.Duration {
	return modelnet.Seconds(c.TraceSec + c.DrainSec)
}

// Topology builds the ring with lossy core links: the access links stay
// clean so drops land on the router-to-router pipes — exactly the
// segments that cross core processes in a federated run. Per-link latency
// jitter (as in gnutella-ring) keeps independent connections' packets from
// colliding at a pipe in the same nanosecond, whose tie order the three
// runtimes do not coordinate.
func (c WebReplRingSpec) Topology() *modelnet.Graph {
	ringAttr := modelnet.LinkAttrs{
		BandwidthBps: modelnet.Mbps(20), LatencySec: modelnet.Ms(5),
		QueuePkts: 50, LossRate: c.LossPct / 100,
	}
	accessAttr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(10), LatencySec: modelnet.Ms(1), QueuePkts: 50}
	g := modelnet.Ring(c.Routers, c.VNsPerRouter, ringAttr, accessAttr)
	latRng := rand.New(rand.NewSource(c.Seed ^ 0x3eb1a))
	for i := range g.Links {
		a := g.Links[i].Attr
		a.LatencySec *= 0.8 + 0.4*latRng.Float64()
		g.Links[i].Attr = a
	}
	return g
}

// serverVN is router r's serving VN; target maps a client VN to the
// replica diametrically across the ring.
func (c WebReplRingSpec) serverVN(r int) int { return r * c.VNsPerRouter }

func (c WebReplRingSpec) target(clientVN int) netstack.Endpoint {
	r := clientVN / c.VNsPerRouter
	s := c.serverVN((r + c.Routers/2) % c.Routers)
	return netstack.Endpoint{VN: pipes.VN(s), Port: 80}
}

// WebReplRingReport is the scenario's measurement. CrossRetransmits counts
// retransmissions on connections whose peer lives on another core process;
// it is necessarily zero outside federation, so cross-mode comparisons use
// Comparable.
type WebReplRingReport struct {
	Requests         uint64 `json:"requests"`
	OK               uint64 `json:"ok"`
	Failed           uint64 `json:"failed"`
	LatNsSum         uint64 `json:"lat_ns_sum"` // summed latency of OK requests
	ServerRequests   uint64 `json:"server_requests"`
	ServerBytes      uint64 `json:"server_bytes"`
	Retransmits      uint64 `json:"retransmits"` // closed client+server conns
	CrossRetransmits uint64 `json:"cross_retransmits,omitempty"`
}

// Merge folds another process's report in.
func (r *WebReplRingReport) Merge(o WebReplRingReport) {
	r.Requests += o.Requests
	r.OK += o.OK
	r.Failed += o.Failed
	r.LatNsSum += o.LatNsSum
	r.ServerRequests += o.ServerRequests
	r.ServerBytes += o.ServerBytes
	r.Retransmits += o.Retransmits
	r.CrossRetransmits += o.CrossRetransmits
}

// Comparable strips the deployment-dependent fields, leaving what every
// execution mode must agree on byte-for-byte.
func (r WebReplRingReport) Comparable() WebReplRingReport {
	r.CrossRetransmits = 0
	return r
}

// Install builds the homed slice of the web deployment. cross, when
// non-nil, reports whether a VN lives on a different core process — used
// to attribute retransmissions to connections that span the cut; pass nil
// outside federation. The returned closure reports this slice's results
// after the run.
func (c WebReplRingSpec) Install(n int, homed func(pipes.VN) bool,
	host func(pipes.VN) *netstack.Host, cross func(pipes.VN) bool) (func() WebReplRingReport, error) {
	if c.VNsPerRouter < 2 {
		return nil, fmt.Errorf("webrepl-ring: need at least 2 VNs per router (1 server + clients), got %d", c.VNsPerRouter)
	}
	// Per-endpoint accumulators: callbacks run on the owning VN's core, so
	// shared counters would race under the in-process parallel runtime.
	// Everything is summed single-threaded in the report closure.
	type connStats struct{ retrans, crossRetrans uint64 }
	observe := func(st *connStats) func(conn *netstack.Conn) {
		return func(conn *netstack.Conn) {
			st.retrans += conn.Retransmits
			if cross != nil && cross(conn.Remote.VN) {
				st.crossRetrans += conn.Retransmits
			}
		}
	}
	var servers []*webrepl.Server
	var serverStats []*connStats
	for r := 0; r < c.Routers; r++ {
		vn := pipes.VN(c.serverVN(r))
		if !homed(vn) {
			continue
		}
		srv, err := webrepl.NewServer(host(vn), 80)
		if err != nil {
			return nil, err
		}
		st := &connStats{}
		srv.OnConnClose = observe(st)
		servers = append(servers, srv)
		serverStats = append(serverStats, st)
	}
	// The global trace, derived identically everywhere; client VNs are the
	// non-server VNs in order.
	clientVNs := make([]int, 0, c.Clients())
	for v := 0; v < n; v++ {
		if v%c.VNsPerRouter != 0 {
			clientVNs = append(clientVNs, v)
		}
	}
	reqs := traffic.Synthesize(traffic.TraceConfig{
		Duration: vtime.DurationOf(c.TraceSec),
		Clients:  len(clientVNs),
		MinRate:  c.MinRate, MaxRate: c.MaxRate,
		MedianSize: float64(c.MedianSize),
		Seed:       c.Seed,
	})
	var playbacks []*webrepl.Playback
	var playStats []*connStats
	for ci, v := range clientVNs {
		vn := pipes.VN(v)
		if !homed(vn) {
			continue
		}
		dst := c.target(v)
		pb := webrepl.NewPlayback([]*netstack.Host{host(vn)},
			func(int) netstack.Endpoint { return dst })
		st := &connStats{}
		pb.OnConnClose = observe(st)
		var mine []traffic.TraceReq
		for _, r := range reqs {
			if r.Client == ci {
				mine = append(mine, r)
			}
		}
		pb.Run(mine)
		playbacks = append(playbacks, pb)
		playStats = append(playStats, st)
	}
	return func() WebReplRingReport {
		var rep WebReplRingReport
		for i, pb := range playbacks {
			rep.Requests += uint64(len(pb.Results))
			for _, r := range pb.Results {
				if r.OK {
					rep.OK++
					rep.LatNsSum += uint64(r.Latency)
				} else {
					rep.Failed++
				}
			}
			rep.Retransmits += playStats[i].retrans
			rep.CrossRetransmits += playStats[i].crossRetrans
		}
		for i, srv := range servers {
			rep.ServerRequests += srv.Requests
			rep.ServerBytes += srv.BytesOut
			rep.Retransmits += serverStats[i].retrans
			rep.CrossRetransmits += serverStats[i].crossRetrans
		}
		return rep
	}, nil
}

// ---------------------------------------------------------------------------
// scenario registration

func init() {
	fednet.Register(ScenarioRingCBR, fednet.Scenario{
		Build: func(params json.RawMessage) (*modelnet.Graph, error) {
			var c RingCBRSpec
			if err := json.Unmarshal(params, &c); err != nil {
				return nil, err
			}
			return c.Topology(), nil
		},
		Install: func(env *fednet.WorkerEnv, params json.RawMessage) (func() json.RawMessage, error) {
			var c RingCBRSpec
			if err := json.Unmarshal(params, &c); err != nil {
				return nil, err
			}
			err := c.Install(env.NumVNs(), env.Homed, env.NewHost,
				func(pipes.VN) *vtime.Scheduler { return env.Sched })
			return nil, err
		},
	})
	fednet.Register(ScenarioGnutella, fednet.Scenario{
		Build: func(params json.RawMessage) (*modelnet.Graph, error) {
			var c GnutellaRingSpec
			if err := json.Unmarshal(params, &c); err != nil {
				return nil, err
			}
			return c.Topology(), nil
		},
		Install: func(env *fednet.WorkerEnv, params json.RawMessage) (func() json.RawMessage, error) {
			var c GnutellaRingSpec
			if err := json.Unmarshal(params, &c); err != nil {
				return nil, err
			}
			report, err := c.Install(env.NumVNs(), env.Homed, env.NewHost)
			if err != nil {
				return nil, err
			}
			return func() json.RawMessage {
				b, _ := json.Marshal(report())
				return b
			}, nil
		},
	})
	fednet.Register(ScenarioCFSRing, fednet.Scenario{
		Build: func(params json.RawMessage) (*modelnet.Graph, error) {
			var c CFSRingSpec
			if err := json.Unmarshal(params, &c); err != nil {
				return nil, err
			}
			return c.Topology(), nil
		},
		Install: func(env *fednet.WorkerEnv, params json.RawMessage) (func() json.RawMessage, error) {
			var c CFSRingSpec
			if err := json.Unmarshal(params, &c); err != nil {
				return nil, err
			}
			report, err := c.Install(env.NumVNs(), env.Homed, env.NewHost)
			if err != nil {
				return nil, err
			}
			return func() json.RawMessage {
				b, _ := json.Marshal(report())
				return b
			}, nil
		},
	})
	fednet.Register(ScenarioWebReplRing, fednet.Scenario{
		Build: func(params json.RawMessage) (*modelnet.Graph, error) {
			var c WebReplRingSpec
			if err := json.Unmarshal(params, &c); err != nil {
				return nil, err
			}
			return c.Topology(), nil
		},
		Install: func(env *fednet.WorkerEnv, params json.RawMessage) (func() json.RawMessage, error) {
			var c WebReplRingSpec
			if err := json.Unmarshal(params, &c); err != nil {
				return nil, err
			}
			// Connections whose peer is homed on another shard span real
			// sockets; their retransmissions are the TCP-across-the-cut
			// probe.
			cross := func(vn pipes.VN) bool { return !env.Homed(vn) }
			report, err := c.Install(env.NumVNs(), env.Homed, env.NewHost, cross)
			if err != nil {
				return nil, err
			}
			return func() json.RawMessage {
				b, _ := json.Marshal(report())
				return b
			}, nil
		},
	})
}

// ---------------------------------------------------------------------------
// local (non-socket) runners, for cross-mode comparison

// localRun is a mode-generic outcome; the scenario-specific report lands
// in the matching field.
type localRun struct {
	Totals     modelnet.Totals
	Deliveries *stats.Sample
	PipeDrops  []uint64 // per-pipe drop vector, indexed by pipe ID
	Drops      []uint64 // unified drop-taxonomy vector (pipes.DropReason)
	WallMS     float64
	Windows    uint64
	Serial     uint64
	Messages   uint64
	Sync       modelnet.SyncMode
	// GrantMin/Mean/Max summarize the effective per-window grant spans the
	// algebra handed out (the adaptive analog of the static lookahead).
	GrantMin, GrantMean, GrantMax modelnet.Duration
	Drive                         obs.DriveProfile // wall-clock breakdown (zero in seq mode)
	Trace                         *obs.Trace       // packet trace, when requested
	Gnutella                      GnutellaRingReport
	CFS                           CFSRingReport
	Web                           WebReplRingReport
}

// RunOpt tweaks a local or federated scenario run beyond the positional
// knobs every runner takes.
type RunOpt func(*runOpts)

type runOpts struct {
	sync       modelnet.SyncMode
	routeCache int
	fedOpts    func(*fednet.Options)
}

// WithSync selects the synchronization algebra for parallel and federated
// runs: modelnet.SyncAdaptive (the default) or modelnet.SyncFixed.
func WithSync(m modelnet.SyncMode) RunOpt {
	return func(o *runOpts) { o.sync = m }
}

// WithRouteCache replaces the local runner's precomputed O(n²) routing
// matrix with an on-demand per-target cache of the given capacity. Large
// populations (the tstub-cbr scale configs) are unrunnable without it.
func WithRouteCache(targets int) RunOpt {
	return func(o *runOpts) { o.routeCache = targets }
}

// WithFedOptions lets a caller adjust the assembled fednet.Options of a
// federated run — the fault-injection and recovery knobs in particular.
// Ignored by the local runners.
func WithFedOptions(fn func(*fednet.Options)) RunOpt {
	return func(o *runOpts) { o.fedOpts = fn }
}

func applyRunOpts(opts []RunOpt) runOpts {
	var o runOpts
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// runLocal executes a registered-scenario-equivalent workload without
// sockets: sequentially (parallel=false) or on the in-process parallel
// runtime. dyn, when non-nil, is the link-dynamics spec the run replays —
// the same value a federated run would ship in its setup frame. install
// returns a finisher that records the scenario's report into the run after
// the clock stops.
func runLocal(topo *modelnet.Graph, seed int64, cores int, parallel, trace bool,
	dyn *dynamics.Spec,
	install func(em *modelnet.Emulation) (func(*localRun), error),
	runFor modelnet.Duration, opts ...RunOpt) (*localRun, error) {
	o := applyRunOpts(opts)
	ideal := modelnet.IdealProfile()
	em, err := modelnet.Run(topo, modelnet.Options{
		Cores: cores, Parallel: parallel, Profile: &ideal, Seed: seed,
		Sync: o.sync, Dynamics: dyn, Trace: trace, RouteCache: o.routeCache,
	})
	if err != nil {
		return nil, err
	}
	res := &localRun{Deliveries: &stats.Sample{}}
	var mu sync.Mutex
	em.OnDeliver(func(_ *pipes.Packet, at modelnet.Time) {
		mu.Lock()
		res.Deliveries.Add(at.Seconds())
		mu.Unlock()
	})
	finish, err := install(em)
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	em.RunFor(runFor)
	res.WallMS = float64(time.Since(begin).Microseconds()) / 1000
	res.Totals = em.Totals()
	res.PipeDrops = em.PipeDrops()
	res.Drops = em.DropsByReason()
	if trace {
		res.Trace = em.TraceData()
	}
	if finish != nil {
		finish(res)
	}
	if em.Par != nil {
		st := em.Par.Stats()
		res.Windows, res.Serial, res.Messages = st.Windows, st.SerialRounds, st.Messages
		res.Sync = em.Par.Mode()
		res.GrantMin, res.GrantMean, res.GrantMax = st.GrantMin(), st.GrantMean(), st.GrantMax()
		res.Drive = st.Profile
	}
	return res, nil
}

func allHomed(pipes.VN) bool { return true }

// RunRingCBRLocal runs the ring-cbr scenario without sockets.
func RunRingCBRLocal(c RingCBRSpec, cores int, parallel, trace bool, opts ...RunOpt) (*localRun, error) {
	return runLocal(c.Topology(), c.Seed, cores, parallel, trace, nil,
		func(em *modelnet.Emulation) (func(*localRun), error) {
			err := c.Install(em.NumVNs(), allHomed, em.NewHost, em.SchedulerOf)
			return nil, err
		}, c.RunFor(), opts...)
}

// RunGnutellaRingLocal runs the gnutella-ring scenario without sockets.
func RunGnutellaRingLocal(c GnutellaRingSpec, cores int, parallel, trace bool, opts ...RunOpt) (*localRun, error) {
	return runLocal(c.Topology(), c.Seed, cores, parallel, trace, nil,
		func(em *modelnet.Emulation) (func(*localRun), error) {
			report, err := c.Install(em.NumVNs(), allHomed, em.NewHost)
			if err != nil {
				return nil, err
			}
			return func(res *localRun) { res.Gnutella = report() }, nil
		}, c.RunFor(), opts...)
}

// RunCFSRingLocal runs the cfs-ring scenario without sockets.
func RunCFSRingLocal(c CFSRingSpec, cores int, parallel, trace bool, opts ...RunOpt) (*localRun, error) {
	return runLocal(c.Topology(), c.Seed, cores, parallel, trace, nil,
		func(em *modelnet.Emulation) (func(*localRun), error) {
			report, err := c.Install(em.NumVNs(), allHomed, em.NewHost)
			if err != nil {
				return nil, err
			}
			return func(res *localRun) { res.CFS = report() }, nil
		}, c.RunFor(), opts...)
}

// RunWebReplRingLocal runs the webrepl-ring scenario without sockets.
func RunWebReplRingLocal(c WebReplRingSpec, cores int, parallel, trace bool, opts ...RunOpt) (*localRun, error) {
	return runLocal(c.Topology(), c.Seed, cores, parallel, trace, nil,
		func(em *modelnet.Emulation) (func(*localRun), error) {
			report, err := c.Install(em.NumVNs(), allHomed, em.NewHost, nil)
			if err != nil {
				return nil, err
			}
			return func(res *localRun) { res.Web = report() }, nil
		}, c.RunFor(), opts...)
}

// RunRingCBRFederated runs the ring-cbr scenario as a cores-process
// federation over loopback (workers spawned from this binary; the caller's
// main or TestMain must call fednet.MaybeRunWorker).
func RunRingCBRFederated(c RingCBRSpec, cores int, dataPlane string, opts ...RunOpt) (*fednet.Report, error) {
	o := applyRunOpts(opts)
	ideal := modelnet.IdealProfile()
	fo := fednet.Options{
		Scenario: ScenarioRingCBR, Params: c,
		Cores: cores, Seed: c.Seed, Profile: &ideal, Sync: o.sync,
		RunFor: c.RunFor(), DataPlane: dataPlane,
		Spawn: true, CollectDeliveries: true,
	}
	if o.fedOpts != nil {
		o.fedOpts(&fo)
	}
	return fednet.Run(fo)
}

// RunGnutellaRingFederated runs the gnutella-ring scenario as a
// cores-process federation over loopback.
func RunGnutellaRingFederated(c GnutellaRingSpec, cores int, dataPlane string, opts ...RunOpt) (*fednet.Report, error) {
	o := applyRunOpts(opts)
	ideal := modelnet.IdealProfile()
	fo := fednet.Options{
		Scenario: ScenarioGnutella, Params: c,
		Cores: cores, Seed: c.Seed, Profile: &ideal, Sync: o.sync,
		RunFor: c.RunFor(), DataPlane: dataPlane,
		Spawn: true, CollectDeliveries: true,
	}
	if o.fedOpts != nil {
		o.fedOpts(&fo)
	}
	return fednet.Run(fo)
}

// RunCFSRingFederated runs the cfs-ring scenario as a cores-process
// federation over loopback.
func RunCFSRingFederated(c CFSRingSpec, cores int, dataPlane string, opts ...RunOpt) (*fednet.Report, error) {
	o := applyRunOpts(opts)
	ideal := modelnet.IdealProfile()
	fo := fednet.Options{
		Scenario: ScenarioCFSRing, Params: c,
		Cores: cores, Seed: c.Seed, Profile: &ideal, Sync: o.sync,
		RunFor: c.RunFor(), DataPlane: dataPlane,
		Spawn: true, CollectDeliveries: true,
	}
	if o.fedOpts != nil {
		o.fedOpts(&fo)
	}
	return fednet.Run(fo)
}

// RunWebReplRingFederated runs the webrepl-ring scenario as a
// cores-process federation over loopback.
func RunWebReplRingFederated(c WebReplRingSpec, cores int, dataPlane string, opts ...RunOpt) (*fednet.Report, error) {
	o := applyRunOpts(opts)
	ideal := modelnet.IdealProfile()
	fo := fednet.Options{
		Scenario: ScenarioWebReplRing, Params: c,
		Cores: cores, Seed: c.Seed, Profile: &ideal, Sync: o.sync,
		RunFor: c.RunFor(), DataPlane: dataPlane,
		Spawn: true, CollectDeliveries: true,
	}
	if o.fedOpts != nil {
		o.fedOpts(&fo)
	}
	return fednet.Run(fo)
}

// mergeWorkerReports unmarshals and merges the per-worker scenario reports
// of a federated run into out (any type with a Merge method, via the
// merge callback).
func mergeWorkerReports[T any](rep *fednet.Report, merge func(T)) error {
	for _, w := range rep.Workers {
		if len(w.Scenario) == 0 {
			continue
		}
		var r T
		if err := json.Unmarshal(w.Scenario, &r); err != nil {
			return fmt.Errorf("shard %d scenario report: %w", w.Shard, err)
		}
		merge(r)
	}
	return nil
}

// GnutellaFederatedReport merges the per-worker scenario reports of a
// federated gnutella-ring run.
func GnutellaFederatedReport(rep *fednet.Report) (GnutellaRingReport, error) {
	var out GnutellaRingReport
	err := mergeWorkerReports(rep, out.Merge)
	return out, err
}

// CFSFederatedReport merges the per-worker scenario reports of a federated
// cfs-ring run.
func CFSFederatedReport(rep *fednet.Report) (CFSRingReport, error) {
	var out CFSRingReport
	err := mergeWorkerReports(rep, out.Merge)
	return out, err
}

// WebReplFederatedReport merges the per-worker scenario reports of a
// federated webrepl-ring run.
func WebReplFederatedReport(rep *fednet.Report) (WebReplRingReport, error) {
	var out WebReplRingReport
	err := mergeWorkerReports(rep, out.Merge)
	return out, err
}

// ---------------------------------------------------------------------------
// the fednet scaling study (mnbench -run fednet -> BENCH_fednet.json)

// FednetConfig parameterizes the scaling study: each scenario — the CBR
// ring, the CFS store (nested RPC payloads), and the web replicas (TCP
// segments) — under the in-process parallel runtime and under real
// multi-process federation at each core count.
type FednetConfig struct {
	Ring  RingCBRSpec
	CFS   CFSRingSpec
	Web   WebReplRingSpec
	Flaky FlakyEdgeSpec
	// TStub is the transit-stub CBR workload at a size every mode can run,
	// so its rows get the full seq/inproc/fednet determinism cross-check.
	TStub TStubCBRSpec
	// TStubScales are the large-population configurations (10⁵ and 10⁶ VNs
	// by default). Only the sharded federation can hold them, so their rows
	// are fednet-only — no sequential baseline, speedup unreported — and
	// exist to record per-worker setup bytes, startup wall-clock, and peak
	// RSS at scale. Empty disables them. ScaleCores are the core counts
	// each runs at; varying them shows the per-worker footprint shrinking
	// as the world is cut into more shards.
	TStubScales []TStubCBRSpec
	ScaleCores  []int
	Cores       []int
	DataPlane   string
}

// DefaultFednet is the full-scale study: the paper's 20×20 ring plus the
// two application workloads, at 2 and 4 cores, over the UDP data plane.
func DefaultFednet() FednetConfig {
	return FednetConfig{
		Ring: RingCBRSpec{
			Routers:       20,
			VNsPerRouter:  20,
			PacketsPerSec: 200,
			PacketBytes:   1000,
			DurationSec:   10,
			Seed:          11,
		},
		CFS: CFSRingSpec{
			Routers:      8,
			VNsPerRouter: 4,
			FileKB:       1024,
			WindowKB:     24,
			Downloaders:  []int{0, 9, 17, 25},
			DurationSec:  20,
			Seed:         21,
		},
		Web: WebReplRingSpec{
			Routers:      10,
			VNsPerRouter: 4,
			LossPct:      0.5,
			TraceSec:     10,
			MinRate:      40,
			MaxRate:      80,
			MedianSize:   8 << 10,
			DrainSec:     10,
			Seed:         31,
		},
		Flaky: FlakyEdgeSpec{
			Web: WebReplRingSpec{
				Routers:      10,
				VNsPerRouter: 4,
				LossPct:      0.5,
				TraceSec:     6,
				MinRate:      40,
				MaxRate:      80,
				MedianSize:   8 << 10,
				DrainSec:     8,
				Seed:         41,
			},
			Trace:           "wifi",
			FailLink:        3,
			FailSec:         2,
			RecoverSec:      7,
			RerouteDelaySec: 0.25,
		},
		TStub: TStubCBRSpec{
			TransitDomains:   2,
			TransitPerDomain: 4,
			StubsPerTransit:  4,
			RoutersPerStub:   3,
			ClientsPerStub:   16,
			Servers:          16,
			Flows:            64,
			PacketsPerSec:    100,
			PacketBytes:      512,
			DurationSec:      4,
			Seed:             51,
		},
		TStubScales: []TStubCBRSpec{
			{
				TransitDomains:   10,
				TransitPerDomain: 10,
				StubsPerTransit:  10,
				RoutersPerStub:   4,
				ClientsPerStub:   100, // 10·10·10·100 = 100 000 VNs
				Servers:          32,
				Flows:            128,
				PacketsPerSec:    20,
				PacketBytes:      512,
				DurationSec:      2,
				Seed:             61,
			},
			{
				TransitDomains:   10,
				TransitPerDomain: 10,
				StubsPerTransit:  10,
				RoutersPerStub:   4,
				ClientsPerStub:   1000, // 10·10·10·1000 = 1 000 000 VNs
				Servers:          32,
				Flows:            128,
				PacketsPerSec:    20,
				PacketBytes:      512,
				DurationSec:      2,
				Seed:             61,
			},
		},
		ScaleCores: []int{2, 4},
		Cores:      []int{2, 4},
		DataPlane:  fednet.DataUDP,
	}
}

// ScaledFednet shrinks the emulated durations for quick runs.
func ScaledFednet(scale float64) FednetConfig {
	cfg := DefaultFednet()
	if scale < 1 {
		cfg.Ring.DurationSec *= scale
		cfg.CFS.DurationSec = 5 + (cfg.CFS.DurationSec-5)*scale
		cfg.Web.TraceSec *= scale
		cfg.Flaky.Web.TraceSec *= scale
		cfg.Flaky.Web.DrainSec *= scale
		cfg.Flaky.FailSec *= scale
		cfg.Flaky.RecoverSec *= scale
		cfg.TStub.DurationSec *= scale
		// Quick runs keep only the smallest large-population point.
		if len(cfg.TStubScales) > 1 {
			cfg.TStubScales = cfg.TStubScales[:1]
		}
		for i := range cfg.TStubScales {
			cfg.TStubScales[i].DurationSec *= scale
		}
		cfg.ScaleCores = []int{2}
	}
	return cfg
}

// FednetRow is one configuration's outcome.
type FednetRow struct {
	Scenario     string  `json:"scenario"`
	Mode         string  `json:"mode"` // seq, inproc, fednet
	Cores        int     `json:"cores"`
	WallMS       float64 `json:"wall_ms"`
	Speedup      float64 `json:"speedup"` // vs the scenario's sequential row
	Delivered    uint64  `json:"delivered"`
	Injected     uint64  `json:"injected"`
	Drops        uint64  `json:"drops"`
	Windows      uint64  `json:"windows,omitempty"`
	SerialRounds uint64  `json:"serial_rounds,omitempty"`
	Messages     uint64  `json:"messages,omitempty"`
	// Frames and BytesOnWire price the data plane of a fednet row: frames
	// written to real sockets (= syscalls on the UDP plane) and bytes
	// including framing. With batching, Frames ≪ Messages.
	Frames      uint64 `json:"frames,omitempty"`
	BytesOnWire uint64 `json:"bytes_on_wire,omitempty"`
	// Sync names the synchronization algebra of a parallel/federated row
	// ("adaptive" or "fixed"); the grant columns are the effective
	// per-window grant spans it handed out — min/mean/max over every
	// (shard, window) pair. Under the fixed algebra the spans collapse to
	// the static lookahead cadence; under the adaptive one they report how
	// far past it the cluster's queue horizon let each shard run.
	Sync        string  `json:"sync,omitempty"`
	GrantMinMS  float64 `json:"grant_min_ms,omitempty"`
	GrantMeanMS float64 `json:"grant_mean_ms,omitempty"`
	GrantMaxMS  float64 `json:"grant_max_ms,omitempty"`
	// Barrier breakdown (internal/obs): where the drive loop's wall time
	// went. Not omitempty — a zero is a measurement (the seq rows have no
	// barrier), not a missing column.
	ComputeWallNs uint64 `json:"compute_wall_ns"`
	BarrierWallNs uint64 `json:"barrier_wall_ns"`
	// Distribution cost of a fednet row, reported per worker and aggregated
	// here as the max across workers (the scaling question is "how big must
	// one machine be", not the fleet sum): setup bytes received, wall clock
	// from first setup byte to setup-ack, peak resident set, and pipes
	// actually materialized (≈ owned + frontier under sharded distribution).
	// RouteRPCs is the fleet total of demand-paged summary fetches.
	SetupBytes        uint64 `json:"setup_bytes,omitempty"`
	StartupWallNs     int64  `json:"startup_wall_ns,omitempty"`
	PeakRSSBytes      uint64 `json:"peak_rss_bytes,omitempty"`
	MaterializedPipes int    `json:"materialized_pipes,omitempty"`
	RouteRPCs         uint64 `json:"route_rpcs,omitempty"`
	// Recoveries counts mid-run worker respawns on a crash row (the
	// checkpoint/restart machinery); RecoveryWallNs is their total
	// wall-clock cost, round replay included.
	Recoveries     int   `json:"recoveries,omitempty"`
	RecoveryWallNs int64 `json:"recovery_wall_ns,omitempty"`
}

// fillWorkerCosts folds a federation's per-worker distribution costs into
// the row: maxima for the per-machine figures, sum for the RPC count.
func fillWorkerCosts(row *FednetRow, fed *fednet.Report) {
	for _, w := range fed.Workers {
		if w.SetupBytes > row.SetupBytes {
			row.SetupBytes = w.SetupBytes
		}
		if w.StartupWallNs > row.StartupWallNs {
			row.StartupWallNs = w.StartupWallNs
		}
		if w.PeakRSSBytes > row.PeakRSSBytes {
			row.PeakRSSBytes = w.PeakRSSBytes
		}
		if w.MaterializedPipes > row.MaterializedPipes {
			row.MaterializedPipes = w.MaterializedPipes
		}
		row.RouteRPCs += w.RouteRPCs
	}
}

// FednetResult is the full study. The three spec fields record each
// scenario's exact parameters, so every row's dimensions are reproducible
// from the JSON alone.
type FednetResult struct {
	Ring        RingCBRSpec     `json:"ring"`
	CFS         CFSRingSpec     `json:"cfs"`
	Web         WebReplRingSpec `json:"web"`
	Flaky       FlakyEdgeSpec   `json:"flaky"`
	TStub       TStubCBRSpec    `json:"tstub"`
	TStubScales []TStubCBRSpec  `json:"tstub_scales,omitempty"`
	DataPlane   string          `json:"data_plane"`
	// HostCPUs bounds the achievable speedup; on a 1-CPU host the
	// parallel and federated rows measure synchronization and socket
	// overhead instead.
	HostCPUs int         `json:"host_cpus"`
	Rows     []FednetRow `json:"rows"`
	// Deterministic reports whether every configuration produced
	// identical conservation counters to its scenario's sequential run.
	Deterministic bool `json:"deterministic"`
}

func totalsRow(scenario, mode string, cores int, t modelnet.Totals, wallMS float64) FednetRow {
	return FednetRow{
		Scenario: scenario, Mode: mode, Cores: cores, WallMS: wallMS,
		Delivered: t.Delivered, Injected: t.Injected,
		Drops: t.PhysDrops + t.VirtualDrops,
	}
}

// runFednetScenario appends one scenario's rows: the sequential baseline,
// then at each core count an in-process and a federated run under each
// synchronization algebra (adaptive and the fixed baseline), every one
// checked against the sequential counters.
func runFednetScenario(res *FednetResult, scenario string, cores []int, dataPlane string,
	local func(cores int, parallel bool, opts ...RunOpt) (*localRun, error),
	federated func(cores int, dataPlane string, opts ...RunOpt) (*fednet.Report, error)) error {
	seq, err := local(1, false)
	if err != nil {
		return err
	}
	base := totalsRow(scenario, "seq", 1, seq.Totals, seq.WallMS)
	base.Speedup = 1
	res.Rows = append(res.Rows, base)
	check := func(r FednetRow) FednetRow {
		if r.WallMS > 0 {
			r.Speedup = base.WallMS / r.WallMS
		}
		if r.Delivered != base.Delivered || r.Injected != base.Injected || r.Drops != base.Drops {
			res.Deterministic = false
		}
		return r
	}
	for _, k := range cores {
		if k < 2 {
			continue
		}
		for _, sm := range []modelnet.SyncMode{modelnet.SyncAdaptive, modelnet.SyncFixed} {
			par, err := local(k, true, WithSync(sm))
			if err != nil {
				return err
			}
			row := totalsRow(scenario, "inproc", k, par.Totals, par.WallMS)
			row.Windows, row.SerialRounds, row.Messages = par.Windows, par.Serial, par.Messages
			row.Sync = par.Sync.String()
			row.GrantMinMS = par.GrantMin.Seconds() * 1000
			row.GrantMeanMS = par.GrantMean.Seconds() * 1000
			row.GrantMaxMS = par.GrantMax.Seconds() * 1000
			row.ComputeWallNs, row.BarrierWallNs = par.Drive.ComputeWallNs, par.Drive.BarrierWallNs
			res.Rows = append(res.Rows, check(row))

			fed, err := federated(k, dataPlane, WithSync(sm))
			if err != nil {
				return err
			}
			frow := totalsRow(scenario, "fednet", k, fed.Totals, fed.WallMS)
			frow.Windows, frow.SerialRounds, frow.Messages = fed.Sync.Windows, fed.Sync.SerialRounds, fed.Sync.Messages
			frow.Frames, frow.BytesOnWire = fed.Frames, fed.BytesOnWire
			frow.Sync = fed.SyncMode.String()
			frow.GrantMinMS = fed.Sync.GrantMin().Seconds() * 1000
			frow.GrantMeanMS = fed.Sync.GrantMean().Seconds() * 1000
			frow.GrantMaxMS = fed.Sync.GrantMax().Seconds() * 1000
			frow.ComputeWallNs, frow.BarrierWallNs = fed.Sync.Profile.ComputeWallNs, fed.Sync.Profile.BarrierWallNs
			fillWorkerCosts(&frow, fed)
			res.Rows = append(res.Rows, check(frow))
		}
	}
	return nil
}

// runFednetCrashRow appends the fault-injection row: the CBR ring at 2
// cores with recovery armed and one planted worker crash mid-run. The row
// records the recovery count and wall-clock cost, and its counters are
// checked against the ring's sequential row like any other configuration —
// a recovered run that diverges flips the study's Deterministic flag.
func runFednetCrashRow(res *FednetResult, cfg FednetConfig) error {
	fed, err := RunRingCBRFederated(cfg.Ring, 2, cfg.DataPlane, WithFedOptions(func(o *fednet.Options) {
		o.Recover = true
		o.FailSpec = &fednet.FailSpec{Shard: 1, Round: 3}
	}))
	if err != nil {
		return fmt.Errorf("ring-cbr crash row: %w", err)
	}
	if fed.Recoveries == 0 {
		return fmt.Errorf("ring-cbr crash row: planted fault never fired")
	}
	row := totalsRow(ScenarioRingCBR+"-crash", "fednet", 2, fed.Totals, fed.WallMS)
	row.Windows, row.SerialRounds, row.Messages = fed.Sync.Windows, fed.Sync.SerialRounds, fed.Sync.Messages
	row.Frames, row.BytesOnWire = fed.Frames, fed.BytesOnWire
	row.Sync = fed.SyncMode.String()
	row.Recoveries, row.RecoveryWallNs = fed.Recoveries, fed.RecoveryWallNs
	for _, r := range res.Rows {
		if r.Scenario == ScenarioRingCBR && r.Mode == "seq" {
			if row.Delivered != r.Delivered || row.Injected != r.Injected || row.Drops != r.Drops {
				res.Deterministic = false
			}
			if row.WallMS > 0 {
				row.Speedup = r.WallMS / row.WallMS
			}
			break
		}
	}
	res.Rows = append(res.Rows, row)
	return nil
}

// RunFednetScaling runs the study: per scenario, a sequential baseline,
// then at each core count the in-process parallel runtime and a real
// multi-process federation.
func RunFednetScaling(cfg FednetConfig) (*FednetResult, error) {
	res := &FednetResult{
		Ring:        cfg.Ring,
		CFS:         cfg.CFS,
		Web:         cfg.Web,
		Flaky:       cfg.Flaky,
		TStub:       cfg.TStub,
		TStubScales: cfg.TStubScales,
		DataPlane:   cfg.DataPlane,
		HostCPUs:    runtime.NumCPU(),

		Deterministic: true,
	}
	if err := runFednetScenario(res, ScenarioRingCBR, cfg.Cores, cfg.DataPlane,
		func(k int, p bool, opts ...RunOpt) (*localRun, error) {
			return RunRingCBRLocal(cfg.Ring, k, p, false, opts...)
		},
		func(k int, dp string, opts ...RunOpt) (*fednet.Report, error) {
			return RunRingCBRFederated(cfg.Ring, k, dp, opts...)
		},
	); err != nil {
		return nil, err
	}
	if err := runFednetCrashRow(res, cfg); err != nil {
		return nil, err
	}
	if err := runFednetScenario(res, ScenarioCFSRing, cfg.Cores, cfg.DataPlane,
		func(k int, p bool, opts ...RunOpt) (*localRun, error) {
			return RunCFSRingLocal(cfg.CFS, k, p, false, opts...)
		},
		func(k int, dp string, opts ...RunOpt) (*fednet.Report, error) {
			return RunCFSRingFederated(cfg.CFS, k, dp, opts...)
		},
	); err != nil {
		return nil, err
	}
	if err := runFednetScenario(res, ScenarioWebReplRing, cfg.Cores, cfg.DataPlane,
		func(k int, p bool, opts ...RunOpt) (*localRun, error) {
			return RunWebReplRingLocal(cfg.Web, k, p, false, opts...)
		},
		func(k int, dp string, opts ...RunOpt) (*fednet.Report, error) {
			return RunWebReplRingFederated(cfg.Web, k, dp, opts...)
		},
	); err != nil {
		return nil, err
	}
	if err := runFednetScenario(res, ScenarioFlakyEdge, cfg.Cores, cfg.DataPlane,
		func(k int, p bool, opts ...RunOpt) (*localRun, error) {
			return RunFlakyEdgeLocal(cfg.Flaky, k, p, false, opts...)
		},
		func(k int, dp string, opts ...RunOpt) (*fednet.Report, error) {
			return RunFlakyEdgeFederated(cfg.Flaky, k, dp, opts...)
		},
	); err != nil {
		return nil, err
	}
	if cfg.TStub.VNs() > 0 {
		// The local baseline cannot hold an O(n²) matrix even at the small
		// size; it routes through the demand-built per-target cache instead,
		// which the shard-local route property test proves path-identical.
		if err := runFednetScenario(res, ScenarioTStubCBR, cfg.Cores, cfg.DataPlane,
			func(k int, p bool, opts ...RunOpt) (*localRun, error) {
				opts = append(opts, WithRouteCache(cfg.TStub.Servers+8))
				return RunTStubCBRLocal(cfg.TStub, k, p, false, opts...)
			},
			func(k int, dp string, opts ...RunOpt) (*fednet.Report, error) {
				return RunTStubCBRFederated(cfg.TStub, k, dp, opts...)
			},
		); err != nil {
			return nil, err
		}
	}
	for _, scale := range cfg.TStubScales {
		if scale.VNs() == 0 {
			continue
		}
		// Scale rows are fednet-only: the point is the per-worker footprint
		// of the sharded distribution at a population no single sequential
		// run could even set up. No baseline, so Speedup stays unreported.
		name := fmt.Sprintf("%s-%dk", ScenarioTStubCBR, scale.VNs()/1000)
		for _, k := range cfg.ScaleCores {
			if k < 2 {
				continue
			}
			fed, err := RunTStubCBRFederated(scale, k, cfg.DataPlane)
			if err != nil {
				return nil, fmt.Errorf("%s at %d cores: %w", name, k, err)
			}
			frow := totalsRow(name, "fednet", k, fed.Totals, fed.WallMS)
			frow.Windows, frow.SerialRounds, frow.Messages = fed.Sync.Windows, fed.Sync.SerialRounds, fed.Sync.Messages
			frow.Frames, frow.BytesOnWire = fed.Frames, fed.BytesOnWire
			frow.Sync = fed.SyncMode.String()
			frow.ComputeWallNs, frow.BarrierWallNs = fed.Sync.Profile.ComputeWallNs, fed.Sync.Profile.BarrierWallNs
			fillWorkerCosts(&frow, fed)
			res.Rows = append(res.Rows, frow)
		}
	}
	return res, nil
}

// PrintFednet renders the study.
func PrintFednet(w io.Writer, res *FednetResult) {
	fprintf(w, "Core federation scaling: ring-cbr %d×%d %.1fs + cfs-ring %d×%d + webrepl-ring %d×%d + flaky-edge %d×%d/%s, %s data plane (host CPUs: %d)\n",
		res.Ring.Routers, res.Ring.VNsPerRouter, res.Ring.DurationSec,
		res.CFS.Routers, res.CFS.VNsPerRouter, res.Web.Routers, res.Web.VNsPerRouter,
		res.Flaky.Web.Routers, res.Flaky.Web.VNsPerRouter, res.Flaky.Trace,
		res.DataPlane, res.HostCPUs)
	fprintf(w, "%-13s %8s %6s %9s %9s %9s %10s %9s %8s %9s %9s %11s %22s\n",
		"scenario", "mode", "sync", "cores", "wall ms", "speedup", "delivered", "windows", "serial", "messages", "frames", "wire MB", "grant min/mean/max ms")
	for _, r := range res.Rows {
		fprintf(w, "%-13s %8s %6s %6d %9.0f %8.2fx %10d %9d %8d %9d %9d %11.1f %8.2f/%.2f/%.2f\n",
			r.Scenario, r.Mode, r.Sync, r.Cores, r.WallMS, r.Speedup, r.Delivered, r.Windows, r.SerialRounds, r.Messages,
			r.Frames, float64(r.BytesOnWire)/1e6, r.GrantMinMS, r.GrantMeanMS, r.GrantMaxMS)
	}
	for _, r := range res.Rows {
		if r.Recoveries > 0 {
			fprintf(w, "  %s (%d cores): %d worker crash(es) recovered in %.1f ms total, replay included\n",
				r.Scenario, r.Cores, r.Recoveries, float64(r.RecoveryWallNs)/1e6)
		}
	}
	hdr := false
	for _, r := range res.Rows {
		if r.SetupBytes == 0 {
			continue
		}
		if !hdr {
			fprintf(w, "Per-worker distribution cost (max across workers):\n")
			fprintf(w, "%-16s %6s %9s %11s %11s %12s %10s %10s\n",
				"scenario", "cores", "sync", "setup KB", "startup ms", "peak RSS MB", "pipes", "route RPC")
			hdr = true
		}
		fprintf(w, "%-16s %6d %9s %11.1f %11.1f %12.1f %10d %10d\n",
			r.Scenario, r.Cores, r.Sync, float64(r.SetupBytes)/1024,
			float64(r.StartupWallNs)/1e6, float64(r.PeakRSSBytes)/(1<<20),
			r.MaterializedPipes, r.RouteRPCs)
	}
	if !res.Deterministic {
		fprintf(w, "  WARNING: configurations disagreed on emulation counters\n")
	}
}

// WriteFednetJSON records the study for the repository (BENCH_fednet.json).
func WriteFednetJSON(path string, res *FednetResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
