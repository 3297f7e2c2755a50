package experiments

// Four workloads of the scenario table (scenario.go; flaky.go, tstub.go and
// live.go hold the other three): each entry's spec, plan, install and
// report. The table declares a scenario once; its one runner,
// Run(Scenario, modelnet.Options), executes it sequentially, on the
// in-process parallel runtime or as an N-process federation according to the
// options alone, and fills the federation registry from the same entries.
//
//   - "ring-cbr": the saturating CBR ring (UDP, nil payloads), the
//     cross-mode determinism yardstick.
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
// all three execution modes derive the same topology, the same per-VN plan,
// and install it identically — which is what makes the byte-identical
// determinism tests in determinism_test.go possible.

import (
	"fmt"
	"math/rand"
	"sort"

	"modelnet"
	"modelnet/internal/apps/cfs"
	"modelnet/internal/apps/chord"
	"modelnet/internal/apps/gnutella"
	"modelnet/internal/apps/webrepl"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
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
func (c GnutellaRingSpec) Install(e Env) (func() GnutellaRingReport, error) {
	nbrs := c.NeighborPlan()
	rep := &GnutellaRingReport{}
	var peers []*gnutella.Peer
	for v := 0; v < e.NumVNs; v++ {
		vn := pipes.VN(v)
		if !e.Homed(vn) {
			continue
		}
		p, err := gnutella.NewPeer(e.NewHost(vn), v, gnutella.Config{DefaultTTL: c.TTL})
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

// Install builds the homed slice of the web deployment, attributing to the
// cut the retransmissions of connections whose peer lives on another core
// process. The returned closure reports this slice's results after the run.
func (c WebReplRingSpec) Install(e Env) (func() WebReplRingReport, error) {
	n, homed, host := e.NumVNs, e.Homed, e.NewHost
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
			if e.remote(conn.Remote.VN) {
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
