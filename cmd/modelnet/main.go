// Command modelnet runs the five-phase pipeline over a GML target topology
// and drives a synthetic workload through the emulation — the equivalent of
// the paper's deploy scripts, in one binary.
//
//	modelnet [-gml topo.gml] [-distill hop|e2e|walkin|walkout] [-walkin N]
//	         [-cores K] [-parallel] [-flows F] [-duration 10] [-ideal]
//	         [-dynamics script] [-trace LINK=NAME,...] [-out distilled.gml]
//
// Without -gml it synthesizes the paper's §4.1 ring (20 routers × 20 VNs).
// The workload is F random-pair bulk TCP flows; the tool reports phase
// statistics, per-flow goodput, core utilization, and emulation accuracy.
// With -parallel each emulated core router runs on its own goroutine
// (internal/parcore).
//
// Link dynamics (internal/dynamics) schedule parameter changes as
// virtual-time events. -dynamics takes a scripted timeline
// ("3@2s loss=0.05; 3@5s down; 3@8s up; reroute=100ms"); -trace replays a
// capacity trace on chosen pipes ("0=wifi,1=trace.txt" — bundled names lte,
// satellite, wifi, or a file of "time_s bandwidth_mbps [latency_ms]"
// lines). Both also apply to federated runs, shipped bit-exactly to every
// worker in the setup frame.
//
// Federation (internal/fednet) spreads the core routers across OS
// processes:
//
//	modelnet core -join host:port            # one worker (per machine)
//	modelnet -federate :9000 -cores 4        # coordinator, waits for workers
//	modelnet -federate 127.0.0.1:0 -cores 4 -fedspawn   # self-contained demo
//
// Live edge ingress/egress (internal/edge) lets real processes exchange
// datagrams with a federated run through a worker-hosted gateway, paced in
// real time:
//
//	modelnet -federate 127.0.0.1:0 -fedspawn -cores 2 -ideal \
//	    -fedscenario live-ring -duration 10 -edge-listen 127.0.0.1:9123 -edge-map 0>6:7
//	modelnet edge -listen 127.0.0.1:5000 -gateway 127.0.0.1:9123   # local-app forwarder
//	# then, from any terminal: nc -u 127.0.0.1 5000
//
// A federated run drives a registered scenario (-fedscenario ring-cbr,
// gnutella-ring, cfs-ring, webrepl-ring, flaky-edge, or live-ring) instead of the local TCP-flow
// workload, because the workload itself must be distributed across the
// worker processes. cfs-ring federates the §5.1 CFS/DHash store (Chord +
// block-fetch RPC, nested payload codecs); webrepl-ring federates the §5.2
// replicated web service, whose netstack TCP segments — retransmissions
// included — cross the worker processes:
//
//	modelnet -federate 127.0.0.1:0 -fedspawn -cores 2 -ideal -fedscenario cfs-ring -feddata tcp
//
// flaky-edge is the link-dynamics scenario: the webrepl workload over ring
// links replaying the wifi trace, with one ring link failing and recovering
// mid-run (routes reconverge); it derives its own dynamics spec:
//
//	modelnet -federate 127.0.0.1:0 -fedspawn -cores 2 -ideal -fedscenario flaky-edge
//
// Checkpoint/restart (-recover, DESIGN.md §8) makes a spawned federation
// survive worker-process death: the coordinator respawns the dead shard and
// replays its rounds, and the run finishes byte-identical to a crash-free
// one. -fail plants a crash on purpose (the fault-injection harness):
//
//	modelnet -federate 127.0.0.1:0 -fedspawn -cores 2 -ideal -recover -fail 1@3:sigkill
//
// -cpuprofile and -memprofile write pprof profiles of the process; workers
// spawned by -fedspawn each write <path>.shard<N> beside it (and
// `modelnet core` takes the same two flags):
//
//	modelnet -ideal -cpuprofile cpu.prof && go tool pprof -top cpu.prof
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"modelnet"
	"modelnet/internal/dynamics"
	"modelnet/internal/edge"
	"modelnet/internal/experiments"
	"modelnet/internal/fednet"
	"modelnet/internal/netstack"
	"modelnet/internal/obs"
	"modelnet/internal/pipes"
	"modelnet/internal/traffic"
)

func main() {
	fednet.MaybeRunWorker() // -fedspawn re-execs this binary as its workers
	if len(os.Args) > 1 && os.Args[1] == "core" {
		coreMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "edge" {
		edgeMain(os.Args[2:])
		return
	}
	gmlPath := flag.String("gml", "", "target topology in GML (default: the paper's ring)")
	distillMode := flag.String("distill", "hop", "distillation: hop, e2e, walkin, walkout")
	walkIn := flag.Int("walkin", 1, "walk-in frontier sets")
	walkOut := flag.Int("walkout", 1, "walk-out frontier sets")
	cores := flag.Int("cores", 1, "emulated core routers")
	parallel := flag.Bool("parallel", false, "run each core router on its own goroutine (internal/parcore)")
	flows := flag.Int("flows", 50, "random-pair bulk TCP flows")
	duration := flag.Float64("duration", 10, "virtual seconds to run")
	ideal := flag.Bool("ideal", false, "ideal (event-exact, infinite-capacity) core")
	dynScript := flag.String("dynamics", "", "link-dynamics script: 'LINK@TIME action...' clauses, ';'-separated (actions bw=MBPS lat=DUR loss=FRAC down up; globals reroute=DUR, noreroute)")
	traceFlag := flag.String("trace", "", "replay capacity traces on pipes: LINK=SOURCE entries, comma-separated (SOURCE: bundled lte/satellite/wifi, or a trace file)")
	seed := flag.Int64("seed", 1, "random seed")
	outPath := flag.String("out", "", "write the distilled topology as GML")
	federate := flag.String("federate", "", "coordinate a multi-process federation listening on this address")
	fedSpawn := flag.Bool("fedspawn", false, "with -federate: spawn the worker processes from this binary")
	fedData := flag.String("feddata", fednet.DataUDP, "with -federate: data plane, udp or tcp")
	fedScenario := flag.String("fedscenario", experiments.ScenarioRingCBR, "with -federate: registered scenario to run")
	fedMaxDgram := flag.Int("fedmaxdgram", 0, "with -federate: UDP data-plane datagram bound in bytes (0 = default)")
	fedRecover := flag.Bool("recover", false, "with -federate -fedspawn: checkpoint/restart — respawn and replay any worker process that dies mid-run")
	ckptEvery := flag.Int("ckpt-every", 0, "with -recover: checkpoint period in step rounds (0 = default)")
	ckptDir := flag.String("ckpt-dir", "", "with -recover: persist per-shard checkpoint digests under this directory")
	fedFail := flag.String("fail", "", "with -federate: plant a worker fault 'SHARD@ROUND[:exit|sigkill]' (the crash-sweep harness; pair with -recover to watch the restart)")
	edgeListen := flag.String("edge-listen", "", "with -federate: live edge gateway UDP address (implies -realtime)")
	edgeMap := flag.String("edge-map", "", "with -edge-listen: mappings 'vn>dstvn:dstport' or 'vn@peerip:port>dstvn:dstport', comma-separated")
	realTime := flag.Bool("realtime", false, "with -federate: pace window release against the wall clock (virtual ns = wall ns)")
	pace := flag.Duration("pace", 0, "with -realtime: pacing quantum (0 = 1ms; the paper's 10 kHz timer is 100µs)")
	traceOut := flag.String("trace-out", "", "record a virtual-time packet trace and write it here (.json = Chrome trace-event, .jsonl = JSON lines, other = canonical binary)")
	profileOut := flag.String("profile-out", "", "write the run's wall-clock/barrier profile as JSON")
	metricsListen := flag.String("metrics-listen", "", "with -federate: serve live run metrics over HTTP on this address (Prometheus text at /metrics, JSON at /metrics.json, live pprof under /debug/pprof/)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of this process here (workers spawned by -fedspawn write <path>.shard<N>)")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit here (workers spawned by -fedspawn write <path>.shard<N>)")
	flag.Parse()
	defer startProfiles(*cpuProfile, *memProfile)()

	spec := modelnet.DistillSpec{}
	switch *distillMode {
	case "hop":
		spec.Mode = modelnet.HopByHop
	case "e2e":
		spec.Mode = modelnet.EndToEnd
	case "walkin":
		spec.Mode = modelnet.WalkIn
		spec.WalkIn = *walkIn
	case "walkout":
		spec.Mode = modelnet.WalkOut
		spec.WalkIn = *walkIn
		spec.WalkOut = *walkOut
	default:
		fatal(fmt.Errorf("unknown -distill %q", *distillMode))
	}
	opts := modelnet.Options{Distill: spec, Cores: *cores, Seed: *seed, Parallel: *parallel}
	if *ideal {
		p := modelnet.IdealProfile()
		opts.Profile = &p
	}
	dyn, err := dynamicsFromFlags(*dynScript, *traceFlag)
	if err != nil {
		fatal(err)
	}
	opts.Dynamics = dyn
	opts.Trace = *traceOut != ""
	obsOut := obsOptions{TraceOut: *traceOut, ProfileOut: *profileOut, MetricsListen: *metricsListen}

	if *federate != "" {
		live := liveOptions{
			EdgeListen: *edgeListen, EdgeMap: *edgeMap,
			RealTime: *realTime || *edgeListen != "", Pace: *pace,
		}
		fail, err := parseFailSpec(*fedFail)
		if err != nil {
			fatal(err)
		}
		rec := recoverOptions{Recover: *fedRecover, CkptEvery: *ckptEvery, CkptDir: *ckptDir, Fail: fail}
		federateMain(*federate, *fedSpawn, *fedData, *fedScenario, *duration, *fedMaxDgram, live, rec, obsOut, opts)
		return
	}

	g, err := loadTopology(*gmlPath)
	if err != nil {
		fatal(err)
	}
	em, err := modelnet.Run(g, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("create : %d nodes, %d links, %d VNs\n", g.NumNodes(), g.NumLinks(), em.NumVNs())
	fmt.Printf("distill: %s -> %d pipes (%d preserved, %d mesh)\n",
		spec.Mode, em.Distilled.Graph.NumLinks(), em.Distilled.PreservedLinks, em.Distilled.MeshLinks)
	lm := em.Assignment.LoadMetrics()
	fmt.Printf("assign : %d cores, pipes/core %v (imbalance %.2f)\n", *cores, lm.LinksPerCore, lm.Imbalance)
	if *cores > 1 {
		cut := em.Assignment.CutStats(em.Distilled.Graph, nil)
		fmt.Printf("         cut: %d pipes, lookahead %v, mean cut latency %v\n",
			cut.CutPipes, cut.Lookahead, cut.MeanCutLatency)
	}
	mode := "sequential"
	if em.Par != nil {
		mode = fmt.Sprintf("parallel ×%d", em.Par.Cores())
	}
	fmt.Printf("bind   : routing over %d VNs (%s run phase)\n", em.Binding.NumVNs(), mode)
	if opts.Dynamics != nil {
		steps := 0
		for _, p := range opts.Dynamics.Profiles {
			steps += len(p.Steps)
		}
		fmt.Printf("dynamics: %d link profiles, %d steps (reroute=%v)\n",
			len(opts.Dynamics.Profiles), steps, opts.Dynamics.Reroute)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		if err := modelnet.WriteGML(f, em.Distilled.Graph); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("wrote distilled topology to %s\n", *outPath)
	}

	// Run phase: random-pair bulk flows, each scheduled on its source
	// VN's scheduler so the same code drives both run modes.
	rng := rand.New(rand.NewSource(*seed))
	n := em.NumVNs()
	if *flows > n/2 {
		*flows = n / 2
	}
	perm := rng.Perm(n)
	var sinks []*traffic.Sink
	for i := 0; i < *flows; i++ {
		srcVN := modelnet.VN(perm[2*i])
		src := em.NewHost(srcVN)
		dst := em.NewHost(modelnet.VN(perm[2*i+1]))
		sink, err := traffic.NewSink(dst, 80)
		if err != nil {
			fatal(err)
		}
		sinks = append(sinks, sink)
		start := modelnet.Time(int64(i) * int64(modelnet.Seconds(0.5)) / int64(*flows))
		em.SchedulerOf(srcVN).At(start, func() {
			traffic.StartBulk(src, netstack.Endpoint{VN: dst.VN(), Port: 80}, traffic.Unbounded)
		})
	}
	begin := time.Now()
	em.RunFor(modelnet.Seconds(*duration))
	wallMS := float64(time.Since(begin).Nanoseconds()) / 1e6

	var rates []float64
	for _, s := range sinks {
		for _, f := range s.Flows {
			rates = append(rates, f.Throughput()/1e6)
		}
	}
	sort.Float64s(rates)
	if len(rates) > 0 {
		sum := 0.0
		for _, r := range rates {
			sum += r
		}
		fmt.Printf("run    : %d flows for %gs: aggregate %.1f Mb/s, per-flow min/median/max %.2f/%.2f/%.2f Mb/s\n",
			len(rates), *duration, sum, rates[0], rates[len(rates)/2], rates[len(rates)-1])
	}
	tot := em.Totals()
	fmt.Printf("core   : %d pkts delivered, %d physical drops, %d virtual drops\n",
		tot.Delivered, tot.PhysDrops, tot.VirtualDrops)
	fmt.Printf("drops  : %s\n", dropSummary(em.DropsByReason()))
	if em.Par != nil {
		rp := em.RunProfile()
		rp.WallMS = wallMS
		fmt.Printf("sync   : %s\n", rp.SyncLine())
		for c := 0; c < em.Par.Cores(); c++ {
			cs := em.Par.ShardEmu(c).CoreStats(c)
			fmt.Printf("core %d : %d pkts in, %d tunnels out\n", c, cs.PktsIn, cs.TunnelsOut)
		}
	} else {
		for c := 0; c < em.Emu.Cores(); c++ {
			fmt.Printf("core %d : cpu %.0f%%, %d tunnels out\n",
				c, em.Emu.CPUUtilization(c, 0)*100, em.Emu.CoreStats(c).TunnelsOut)
		}
	}
	acc := em.AccuracyStats()
	fmt.Printf("accuracy: %v\n", &acc)
	if obsOut.TraceOut != "" {
		tr := em.TraceData()
		if err := tr.WriteFile(obsOut.TraceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("trace  : %d events -> %s\n", len(tr.Events), obsOut.TraceOut)
	}
	if obsOut.ProfileOut != "" {
		rp := em.RunProfile()
		rp.WallMS = wallMS
		if err := rp.WriteFile(obsOut.ProfileOut); err != nil {
			fatal(err)
		}
		fmt.Printf("profile: %s mode breakdown -> %s\n", rp.Mode, obsOut.ProfileOut)
	}
}

// dropSummary renders the unified drop-taxonomy vector (indexed by
// pipes.DropReason), skipping empty slots.
func dropSummary(drops []uint64) string {
	var b strings.Builder
	for r, n := range drops {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%d", pipes.DropReason(r), n)
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// edgeSummary is the gateway-stats line of the federation report. It prints
// every run — zeros included — so a silently dead live edge is visible, not
// hidden behind the lease being unset.
func edgeSummary(e edge.GatewayStats) string {
	return fmt.Sprintf("%d in / %d out real datagrams (%d oversize, %d unmapped, %d queue drops, %d evictions)",
		e.IngressPkts, e.EgressPkts, e.Oversize, e.Unmapped, e.QueueDrops, e.Evictions)
}

// coreMain is the worker subcommand: one process, one federated shard.
func coreMain(args []string) {
	fs := flag.NewFlagSet("modelnet core", flag.ExitOnError)
	join := fs.String("join", "", "coordinator control-plane address (host:port)")
	timeout := fs.Duration("timeout", fednet.DefaultTimeout, "liveness bound for every protocol step")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to <path>.shard<N>")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to <path>.shard<N>")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: modelnet core -join host:port [-timeout 2m]")
		fmt.Fprintln(os.Stderr, "runs one federated core-router worker; start one per machine, then the coordinator with -federate")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if *join == "" {
		fs.Usage()
		os.Exit(2)
	}
	err := fednet.Worker(*join, fednet.WorkerOptions{
		Timeout: *timeout,
		Log: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
		CPUProfile: *cpuProfile,
		MemProfile: *memProfile,
	})
	if err != nil {
		fatal(err)
	}
}

// liveOptions carry the CLI's live edge knobs into federateMain.
type liveOptions struct {
	EdgeListen string
	EdgeMap    string
	RealTime   bool
	Pace       time.Duration
}

// recoverOptions carry the CLI's fault-tolerance knobs into federateMain.
type recoverOptions struct {
	Recover   bool
	CkptEvery int
	CkptDir   string
	Fail      *modelnet.FailSpec
}

// parseFailSpec parses -fail's 'SHARD@ROUND[:exit|sigkill]' syntax.
func parseFailSpec(s string) (*modelnet.FailSpec, error) {
	if s == "" {
		return nil, nil
	}
	spec, mode, _ := strings.Cut(s, ":")
	shardStr, roundStr, ok := strings.Cut(spec, "@")
	if !ok {
		return nil, fmt.Errorf("-fail %q: want SHARD@ROUND[:exit|sigkill]", s)
	}
	shard, err := strconv.Atoi(shardStr)
	if err != nil {
		return nil, fmt.Errorf("-fail %q: bad shard: %v", s, err)
	}
	round, err := strconv.Atoi(roundStr)
	if err != nil {
		return nil, fmt.Errorf("-fail %q: bad round: %v", s, err)
	}
	return &modelnet.FailSpec{Shard: shard, Round: round, Mode: mode}, nil
}

// obsOptions carry the CLI's observability knobs (internal/obs).
type obsOptions struct {
	TraceOut      string
	ProfileOut    string
	MetricsListen string
}

// parseEdgeMaps parses the -edge-map syntax: comma-separated
// "vn>dstvn:dstport" (dynamic: first unknown real source claims the VN) or
// "vn@peerip:port>dstvn:dstport" (static external endpoint).
func parseEdgeMaps(s string) ([]edge.GatewayMap, error) {
	var maps []edge.GatewayMap
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lhs, rhs, ok := strings.Cut(part, ">")
		if !ok {
			return nil, fmt.Errorf("-edge-map %q: want vn[@peer]>dstvn:dstport", part)
		}
		var m edge.GatewayMap
		vnStr, peer, hasPeer := strings.Cut(lhs, "@")
		if hasPeer {
			m.Peer = peer
		}
		// Strict parsing: a typo'd entry must fail loudly, not be
		// partially accepted (Sscanf would ignore trailing garbage).
		vn, err := strconv.Atoi(vnStr)
		if err != nil {
			return nil, fmt.Errorf("-edge-map %q: bad ingress VN %q", part, vnStr)
		}
		m.VN = vn
		dstVN, dstPort, ok := strings.Cut(rhs, ":")
		if !ok {
			return nil, fmt.Errorf("-edge-map %q: bad destination %q (want dstvn:dstport)", part, rhs)
		}
		if m.DstVN, err = strconv.Atoi(dstVN); err != nil {
			return nil, fmt.Errorf("-edge-map %q: bad destination VN %q", part, dstVN)
		}
		port, err := strconv.ParseUint(dstPort, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("-edge-map %q: bad destination port %q", part, dstPort)
		}
		m.DstPort = uint16(port)
		maps = append(maps, m)
	}
	if len(maps) == 0 {
		return nil, fmt.Errorf("-edge-listen needs at least one -edge-map entry")
	}
	return maps, nil
}

// edgeMain is the local-app forwarder: it binds a plain local UDP port and
// relays datagrams between whatever unmodified application sends there
// (netcat, a game client, a measurement probe) and a federated run's edge
// gateway — so the app needs no knowledge of ModelNet at all, just a
// localhost address to talk to. The first local sender becomes the relay's
// peer; replies from the gateway go back to it.
func edgeMain(args []string) {
	fs := flag.NewFlagSet("modelnet edge", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "local UDP address the application talks to")
	gateway := fs.String("gateway", "", "the federated run's edge gateway address (printed by -edge-listen)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: modelnet edge -listen 127.0.0.1:5000 -gateway host:port")
		fmt.Fprintln(os.Stderr, "forwards a local application's UDP socket into a live federated run's edge gateway")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if *gateway == "" {
		fs.Usage()
		os.Exit(2)
	}
	local, err := net.ListenUDP("udp", mustUDPAddr(*listen))
	if err != nil {
		fatal(err)
	}
	up, err := net.DialUDP("udp", nil, mustUDPAddr(*gateway))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("modelnet edge: forwarding %s <-> gateway %s\n", local.LocalAddr(), *gateway)

	// The relay must outlive gateway hiccups: a connected UDP socket
	// surfaces ICMP port-unreachable (gateway not yet up, or the run
	// ended) as ECONNREFUSED on the next read/write, which is transient —
	// log and carry on rather than cutting off the local application.
	transient := func(op string, err error) {
		fmt.Fprintf(os.Stderr, "modelnet edge: %s: %v (gateway down? continuing)\n", op, err)
	}
	var mu sync.Mutex
	var app *net.UDPAddr
	go func() { // gateway -> app
		buf := make([]byte, 64<<10)
		for {
			n, err := up.Read(buf)
			if err != nil {
				transient("gateway read", err)
				time.Sleep(100 * time.Millisecond)
				continue
			}
			mu.Lock()
			dst := app
			mu.Unlock()
			if dst != nil {
				_, _ = local.WriteToUDP(buf[:n], dst)
			}
		}
	}()
	buf := make([]byte, 64<<10) // app -> gateway
	for {
		n, raddr, err := local.ReadFromUDP(buf)
		if err != nil {
			fatal(err) // our own listening socket failing is not transient
		}
		mu.Lock()
		app = raddr
		mu.Unlock()
		if _, err := up.Write(buf[:n]); err != nil {
			transient("gateway write", err)
		}
	}
}

// dynamicsFromFlags builds the link-dynamics spec the -dynamics script and
// -trace replay flags describe (either may be empty; nil when both are).
func dynamicsFromFlags(script, traces string) (*modelnet.DynamicsSpec, error) {
	var spec *modelnet.DynamicsSpec
	if script != "" {
		s, err := dynamics.ParseScript(script)
		if err != nil {
			return nil, err
		}
		spec = s
	}
	if traces == "" {
		return spec, nil
	}
	if spec == nil {
		spec = &modelnet.DynamicsSpec{}
	}
	for _, part := range strings.Split(traces, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		linkStr, src, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-trace %q: want LINK=SOURCE", part)
		}
		link, err := strconv.Atoi(linkStr)
		if err != nil || link < 0 {
			return nil, fmt.Errorf("-trace %q: bad link %q", part, linkStr)
		}
		text, ok := dynamics.BundledTrace(src)
		if !ok {
			data, err := os.ReadFile(src)
			if err != nil {
				return nil, fmt.Errorf("-trace %q: not a bundled trace and %v", part, err)
			}
			text = string(data)
		}
		p, err := dynamics.TraceProfile(link, text)
		if err != nil {
			return nil, fmt.Errorf("-trace %q: %w", part, err)
		}
		spec.Profiles = append(spec.Profiles, p)
	}
	return spec, nil
}

func mustUDPAddr(s string) *net.UDPAddr {
	a, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		fatal(err)
	}
	return a
}

// federateMain coordinates a multi-process run of a registered scenario.
func federateMain(listen string, spawn bool, dataPlane, scenario string, duration float64, maxDgram int, live liveOptions, rec recoverOptions, obsOut obsOptions, opts Options) {
	opts.Federate = &modelnet.FederateOptions{
		Listen:        listen,
		DataPlane:     dataPlane,
		Spawn:         spawn,
		MaxDatagram:   maxDgram,
		RealTime:      live.RealTime,
		Pace:          modelnet.Duration(live.Pace),
		MetricsListen: obsOut.MetricsListen,
		Recover:       rec.Recover,
		CkptEvery:     rec.CkptEvery,
		CkptDir:       rec.CkptDir,
		Fail:          rec.Fail,
	}
	if live.EdgeListen != "" {
		maps, err := parseEdgeMaps(live.EdgeMap)
		if err != nil {
			fatal(err)
		}
		opts.Federate.Edge = &edge.GatewayConfig{Listen: live.EdgeListen, Maps: maps}
		opts.Federate.OnLive = func(addrs []string) {
			for shard, a := range addrs {
				if a != "" {
					fmt.Printf("live   : shard %d gateway on %s (run window %gs)\n", shard, a, duration)
				}
			}
		}
	}
	if opts.Cores < 2 {
		opts.Cores = 2
	}
	sc, ok := experiments.Lookup(scenario)
	if !ok {
		fatal(fmt.Errorf("-fedscenario %q: known scenarios are %v", scenario, fednet.Scenarios()))
	}
	sc.Spec = sc.Example(duration, opts.Seed)
	begin := time.Now()
	// Synthetic scenarios get settle time after the injection window; a
	// real-time run's deadline IS its wall-clock duration, so padding it
	// would keep live users waiting for five silent seconds.
	sc.RunFor = modelnet.Seconds(duration + 5)
	if opts.Federate.RealTime {
		sc.RunFor = modelnet.Seconds(duration)
	}
	res, err := experiments.Run(sc, opts)
	if err != nil {
		fatal(err)
	}
	rep := res.Fed
	fmt.Printf("federation: %d worker processes over %s, scenario %s\n", rep.Cores, rep.DataPlane, scenario)
	fmt.Printf("run    : %d injected, %d delivered, %d phys drops, %d virtual drops (%.0f ms wall, %.0f ms total)\n",
		rep.Totals.Injected, rep.Totals.Delivered, rep.Totals.PhysDrops, rep.Totals.VirtualDrops,
		rep.WallMS, float64(time.Since(begin).Milliseconds()))
	srp := rep.RunProfile()
	fmt.Printf("sync   : %s (cut: %d pipes, floor %v)\n",
		srp.SyncLine(), rep.Cut.CutPipes, rep.Lookahead)
	if rep.Recoveries > 0 {
		fmt.Printf("recover: %d worker crash(es) recovered in %.1f ms, round replay included\n",
			rep.Recoveries, float64(rep.RecoveryWallNs)/1e6)
	}
	fmt.Printf("wire   : %d data-plane frames, %.1f MB on the wire (%.1f messages/frame)\n",
		rep.Frames, float64(rep.BytesOnWire)/1e6, float64(rep.Sync.Messages)/float64(max(rep.Frames, 1)))
	for _, w := range rep.Workers {
		fmt.Printf("shard %d: %d injected, %d delivered, %d tunnels in, %d tunnels out\n",
			w.Shard, w.Totals.Injected, w.Totals.Delivered, w.TunnelsIn, w.TunnelsOut)
	}
	if res.App != nil {
		fmt.Print(sc.Summary(res.App))
	}
	fmt.Printf("drops  : %s\n", dropSummary(rep.DropsByReason))
	fmt.Printf("edge   : %s\n", edgeSummary(rep.Edge))
	p := rep.Sync.Profile
	fmt.Printf("profile: window rounds %.0f ms, drain rounds %.0f ms, pacing idle %.0f ms, driver %.0f ms\n",
		float64(p.ComputeWallNs)/1e6, float64(p.SerialWallNs)/1e6,
		float64(p.IdleWallNs)/1e6, float64(p.BarrierWallNs)/1e6)
	acc := rep.Accuracy
	fmt.Printf("accuracy: %v\n", &acc)
	if obsOut.TraceOut != "" && rep.Trace != nil {
		if err := rep.Trace.WriteFile(obsOut.TraceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("trace  : %d events -> %s\n", len(rep.Trace.Events), obsOut.TraceOut)
	}
	if obsOut.ProfileOut != "" {
		rp := rep.RunProfile()
		if err := rp.WriteFile(obsOut.ProfileOut); err != nil {
			fatal(err)
		}
		fmt.Printf("profile: fednet mode breakdown -> %s\n", obsOut.ProfileOut)
	}
}

// Options is shortened locally for federateMain's signature.
type Options = modelnet.Options

func loadTopology(path string) (*modelnet.Graph, error) {
	if path == "" {
		ring := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(20), LatencySec: modelnet.Ms(5), QueuePkts: 30}
		access := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(2), LatencySec: modelnet.Ms(1), QueuePkts: 20}
		return modelnet.Ring(20, 20, ring, access), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return modelnet.ReadGML(f)
}

// startProfiles begins the -cpuprofile / -memprofile recording for this
// process and for any workers it spawns; the returned func finishes the
// files. A run that ends in fatal leaves them unfinished.
func startProfiles(cpuPath, memPath string) (stop func()) {
	fednet.ProfileSpawnedWorkers(cpuPath, memPath)
	stopProfiles, err := obs.StartProfiles(cpuPath, memPath)
	if err != nil {
		fatal(err)
	}
	return func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "modelnet:", err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "modelnet:", err)
	os.Exit(1)
}
