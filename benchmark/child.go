package main

// One run of one workload, in a process of its own so that heap state and
// VmHWM are per run. The parent (ledger.go) re-executes the binary with
// -child; the run's outcome is one JSON object on stdout.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"modelnet"
	"modelnet/internal/emucore"
	"modelnet/internal/fednet"
	"modelnet/internal/obs"
	"modelnet/internal/pipes"
)

// stolenStart is what the host had stolen from this guest when the run
// began. It is declared, and so read, before procStart: the read takes time
// that is not the run's.
var stolenStart = stolen()

// procStart is when the run began: this process's start, as early as Go code
// can see it. Exec and runtime start-up before it are the host's work, not
// the program's, and on a shared host they take anything from 2 to 30 ms.
var procStart = time.Now()

// stolen is how long this guest's vCPUs have stood ready while the host ran
// something else: the steal column of /proc/stat over all CPUs, which counts
// ticks of 10 ms (USER_HZ). Zero where the file or the column is absent.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// setupTime is one set-up as the ledger counts it: the wall since start less
// what the host stole from the guest meanwhile. A set-up is one call of a
// third of a second on the ring, too long for any sample of it to pass
// between two stalls, and stolen time is the one part of the host's
// interference the guest is told about.
func setupTime(start time.Time, stolenBefore time.Duration) (net, wall time.Duration) {
	wall = time.Since(start)
	return max(wall-(stolen()-stolenBefore), wall/4), wall
}

// childArgs select what one child process runs.
type childArgs struct {
	Workload string
	Seed     int64
	Scale    float64
	// Ref runs the scenario's sequential in-process form whatever the
	// workload's mode: the oracle for hops and sim_digest.
	Ref bool
	// SetupOnly makes an in-process run of set-ups alone: more samples of
	// setup_s for a fraction of a run's cost.
	SetupOnly bool
	// Traced keeps benchmark-side spans and adds the layer counts and the
	// setup-phase spans that cost extra work.
	Traced bool
	// PktTrace turns Options.Trace on (the observability on-cost run).
	PktTrace bool
}

// timedSlice is one piece of a run's timed phase: how long it took, how much
// CPU the process used in it, and the packet-hops it simulated.
type timedSlice struct {
	WallNs int64  `json:"wall_ns"`
	CPUNs  int64  `json:"cpu_ns"`
	Hops   uint64 `json:"hops"`
}

// runResult is what one child reports.
type runResult struct {
	Err string `json:"err,omitempty"`
	// TimedNs is the wall of the whole timed phase: the sum of Slices.
	TimedNs int64 `json:"timed_ns"`
	// SetupNs is the set-up net of stolen time (setupTime); a federated
	// run's is its wall.
	SetupNs int64 `json:"setup_ns"`
	// SetupsNs is what a setup-only run reports instead: one time per set-up.
	SetupsNs []int64 `json:"setups_ns,omitempty"`
	// Slices is the timed phase as an in-process run makes it, one RunFor of
	// workload.slice virtual time each (one in all where that is zero). A
	// federated run cannot be stepped from outside and leaves it empty: the
	// parent makes one slice of the whole run.
	Slices []timedSlice `json:"slices,omitempty"`
	// Hops is Σ Pipe.Accepted over materialized pipes; federated runs leave
	// it zero and take it from the oracle.
	Hops         uint64         `json:"hops"`
	Totals       emucore.Totals `json:"totals"`
	Drops        []uint64       `json:"drops"`
	Digest       string         `json:"digest"`
	PeakRSSBytes uint64         `json:"peak_rss_bytes"`
	// PhysAfterInject counts the physical drops that hit packets already
	// counted as injected; Totals.PhysDrops also holds the ingress refusals
	// of the hardware profile, which never were. Conservation needs this one.
	PhysAfterInject uint64 `json:"phys_after_inject"`
	// Counts are the simulated and profile counts the layer metrics and the
	// share estimate are computed from (events, messages, windows, ...).
	Counts map[string]float64 `json:"counts"`
	Spans  []span             `json:"spans,omitempty"`
}

func runChild(a childArgs) runResult {
	w, err := findWorkload(a.Workload)
	if err != nil {
		return runResult{Err: err.Error()}
	}
	rec := &spanRecorder{on: a.Traced}
	root := rec.begin("bench.run", -1)
	sc := w.scenario(a.Seed, a.Scale)
	var res runResult
	if a.SetupOnly {
		res, err = runSetupOnly(w, sc, a)
	} else if w.mode == modeFed && !a.Ref {
		res, err = runFederated(w, sc, a, rec, root)
	} else {
		res, err = runInProcess(w, sc, a, rec, root)
	}
	if err != nil {
		return runResult{Err: err.Error()}
	}
	rec.end(root)
	res.PeakRSSBytes += selfPeakRSS()
	res.Spans = rec.spans
	return res
}

// setUp builds the scenario's world and installs its applications: all an
// in-process run does before its timed phase.
func setUp(w *workload, sc scenario, a childArgs, rec *spanRecorder, root int) (g *modelnet.Graph, em *modelnet.Emulation, app func() any, err error) {
	sp := rec.begin("topology.build", root)
	g = sc.topo()
	rec.end(sp)

	opts := sc.opts
	opts.Seed = a.Seed
	opts.Trace = a.PktTrace
	if w.mode == modeInproc && !a.Ref {
		opts.Cores, opts.Parallel = shards, true
	}
	sp = rec.begin("modelnet.Run", root)
	em, err = modelnet.Run(g, opts)
	rec.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = rec.begin("scenario.install", root)
	app, err = sc.install(em)
	rec.end(sp)
	return g, em, app, err
}

// A setup-only run sets up again and again for setupOnlyFor (less at a
// -scale below 1, as the timed phases are), at most maxSetups times.
const (
	setupOnlyFor = time.Second
	maxSetups    = 64
)

// runSetupOnly times set-up after set-up in this one process: the first from
// the process's start on a fresh heap, the rest on a heap the collector has
// already grown, which the host's page faults touch far less.
func runSetupOnly(w *workload, sc scenario, a childArgs) (runResult, error) {
	var res runResult
	rec := &spanRecorder{}
	budget := time.Duration(float64(setupOnlyFor) * min(a.Scale, 1))
	start, stolenBefore := procStart, stolenStart
	for len(res.SetupsNs) < maxSetups && time.Since(procStart) < budget {
		if _, _, _, err := setUp(w, sc, a, rec, -1); err != nil {
			return runResult{}, err
		}
		net, _ := setupTime(start, stolenBefore)
		res.SetupsNs = append(res.SetupsNs, net.Nanoseconds())
		stolenBefore, start = stolen(), time.Now()
	}
	return res, nil
}

// runInProcess drives modelnet.Run + install + RunFor directly.
func runInProcess(w *workload, sc scenario, a childArgs, rec *spanRecorder, root int) (runResult, error) {
	g, em, app, err := setUp(w, sc, a, rec, root)
	if err != nil {
		return runResult{}, err
	}

	emus := []*emucore.Emulator{em.Emu}
	if em.Par != nil {
		emus = emus[:0]
		for i := 0; i < em.Par.Cores(); i++ {
			emus = append(emus, em.Par.ShardEmu(i))
		}
	}
	countHops := func() (hops uint64) {
		for _, emu := range emus {
			emu.ScanMaterialized(func(p *pipes.Pipe) { hops += p.Accepted })
		}
		return hops
	}

	// The timed phase: RunFor in slices, each timed on its own. Counting the
	// hops between two slices is outside every slice's time.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runSpan := rec.begin("emu.RunFor", root)
	setup, setupWall := setupTime(procStart, stolenStart)
	begin := procStart.Add(setupWall)
	step := w.slice
	if step == 0 {
		step = sc.runFor
	}
	slices := make([]timedSlice, 0, sc.runFor/step+1)
	var timed time.Duration
	var hops uint64
	for left := sc.runFor; left > 0; left -= step {
		cpu0, t0 := processCPU(), time.Now()
		em.RunFor(min(left, step))
		wall, cpu := time.Since(t0), processCPU()-cpu0
		h := countHops()
		slices = append(slices, timedSlice{wall.Nanoseconds(), cpu.Nanoseconds(), h - hops})
		timed, hops = timed+wall, h
	}
	rec.end(runSpan)
	runtime.ReadMemStats(&after)

	sp := rec.begin("report.collect", root)
	res := runResult{
		TimedNs: timed.Nanoseconds(), SetupNs: setup.Nanoseconds(), Slices: slices,
		Hops: hops, Totals: em.Totals(), Drops: em.DropsByReason(),
		Counts: map[string]float64{},
	}
	var appReport any
	if app != nil {
		appReport = app()
	}
	res.Digest = simDigest(res.Totals, res.Drops, em.PipeDrops(), appReport)
	var events uint64
	c := res.Counts
	if em.Par != nil {
		prof := em.RunProfile()
		for _, s := range prof.Shards {
			events += s.EventsFired
		}
		addShardSpans(rec, runSpan, begin, prof.Shards)
		syncCounts(c, prof)
		res.PhysAfterInject = res.Totals.PhysDrops // zero under the ideal profile
	} else {
		for i := 0; i < em.Emu.Cores(); i++ {
			res.PhysAfterInject += em.Emu.CoreStats(i).PhysDropsTx
		}
		events = em.Sched.Fired()
	}
	c["events"] = float64(events)
	c["mallocs"] = float64(after.Mallocs - before.Mallocs)
	if r, ok := appReport.(fig4Report); ok {
		c["segments"] = float64(r.Segments)
		c["retransmits"] = float64(r.Retransmits)
	}
	rec.end(sp)
	if a.Traced {
		c["topology_build_ms"] = float64(rec.durNs("topology.build")) / 1e6
		setupSpans(rec, root, g, a.Seed, c)
	}
	return res, nil
}

// runFederated drives fednet.Run with spawned workers; the phases inside it
// are timed from the coordinator's progress log lines.
func runFederated(w *workload, sc scenario, a childArgs, rec *spanRecorder, root int) (runResult, error) {
	ideal := modelnet.IdealProfile()
	var tCoord, tJoined, tRunning time.Time
	sp := rec.begin("fednet.Run", root)
	begin := time.Now()
	rep, err := fednet.Run(fednet.Options{
		Scenario: sc.fedName, Params: sc.fedParams,
		Cores: shards, Seed: a.Seed, Profile: &ideal,
		RunFor: sc.runFor, DataPlane: w.plane,
		Spawn: true, CollectDeliveries: false, Trace: a.PktTrace,
		Log: func(format string, _ ...any) {
			switch {
			case strings.Contains(format, "coordinating"):
				tCoord = time.Now()
			case strings.Contains(format, "joined"):
				tJoined = time.Now()
			case strings.Contains(format, "shards up"):
				tRunning = time.Now()
			}
		},
	})
	total := time.Since(begin)
	rec.end(sp)
	if err != nil {
		return runResult{}, err
	}
	timed := time.Duration(rep.WallMS * float64(time.Millisecond))
	res := runResult{
		TimedNs: timed.Nanoseconds(),
		SetupNs: (begin.Sub(procStart) + total - timed).Nanoseconds(),
		Totals:  rep.Totals, Drops: rep.DropsByReason,
		PhysAfterInject: rep.Totals.PhysDrops, // zero under the ideal profile
		Counts:          map[string]float64{},
	}
	var appReport any
	if sc.fedApp != nil {
		if appReport, err = sc.fedApp(rep); err != nil {
			return runResult{}, err
		}
	}
	res.Digest = simDigest(res.Totals, res.Drops, rep.PipeDrops, appReport)
	prof := rep.RunProfile()
	c := res.Counts
	syncCounts(c, prof)
	var events, setupBytes, routeRPCs uint64
	var startupNs int64
	for _, wr := range rep.Workers {
		k := "shard" + strconv.Itoa(wr.Shard) + "."
		c[k+"msgs_out"] = float64(wr.TunnelsOut)
		c[k+"msgs_in"] = float64(wr.TunnelsIn)
		events += wr.Profile.EventsFired
		res.PeakRSSBytes += wr.PeakRSSBytes
		setupBytes += wr.SetupBytes
		routeRPCs += wr.RouteRPCs
		startupNs = max(startupNs, wr.StartupWallNs)
	}
	c["events"] = float64(events)
	c["frames"] = float64(rep.Frames)
	c["bytes_on_wire"] = float64(rep.BytesOnWire)
	c["setup_bytes"] = float64(setupBytes)
	c["route_rpcs"] = float64(routeRPCs)
	c["startup_ms"] = float64(startupNs) / 1e6
	if !tCoord.IsZero() && !tJoined.IsZero() && !tRunning.IsZero() {
		c["spawn_join_ms"] = float64(tJoined.Sub(tCoord).Nanoseconds()) / 1e6
		fr := sp
		rec.add("fednet.prepare", fr, begin, tCoord)
		rec.add("fednet.spawn_join", fr, tCoord, tJoined)
		rec.add("fednet.setup_stream", fr, tJoined, tRunning)
		run := rec.add("emu.RunFor", fr, tRunning, tRunning.Add(timed))
		rec.add("report.collect", fr, tRunning.Add(timed), begin.Add(total))
		addShardSpans(rec, run, tRunning, prof.Shards)
	}
	if a.Traced {
		// fednet.Run built the topology itself; build it once more, timed.
		sp := rec.begin("topology.build", root)
		g := sc.topo()
		rec.end(sp)
		c["topology_build_ms"] = float64(rec.spans[sp].DurNs) / 1e6
		setupSpans(rec, root, g, a.Seed, c)
	}
	return res, nil
}

// syncCounts records the synchronization counts of a parallel or federated
// run: windows, messages, grant spans, the driver's compute/barrier split
// and the per-shard wall buckets (per shard, never summed: the run waits on
// the slower shard).
func syncCounts(c map[string]float64, p obs.RunProfile) {
	c["windows"] = float64(p.Windows)
	c["messages"] = float64(p.Messages)
	c["grant_mean_ms"] = p.GrantMeanMS
	c["drive_compute_ns"] = float64(p.Drive.ComputeWallNs)
	c["drive_barrier_ns"] = float64(p.Drive.BarrierWallNs)
	var util float64
	for _, s := range p.Shards {
		k := "shard" + strconv.Itoa(s.Shard) + "."
		c[k+"run_ns"] = float64(s.RunWallNs)
		c[k+"flush_ns"] = float64(s.FlushWallNs)
		c[k+"apply_ns"] = float64(s.ApplyWallNs)
		c[k+"wait_ns"] = float64(s.WaitWallNs)
		c[k+"drain_ns"] = float64(s.DrainWallNs)
		c[k+"events"] = float64(s.EventsFired)
		util += s.LookaheadUtilization()
	}
	if n := len(p.Shards); n > 0 {
		c["lookahead_util"] = util / float64(n)
	}
	c["shards"] = float64(len(p.Shards))
}

// simDigest is the cross-mode oracle: SHA-256 over everything a run
// simulated that every mode can report without collecting deliveries.
func simDigest(t emucore.Totals, drops, pipeDrops []uint64, app any) string {
	b, err := json.Marshal(struct {
		Totals    emucore.Totals
		Drops     []uint64
		PipeDrops []uint64
		App       any
	}{t, drops, pipeDrops, app})
	if err != nil {
		panic(fmt.Sprintf("sim digest: %v", err)) // plain counters always marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// processCPU is the CPU time this process has used so far, all threads
// (CLOCK_PROCESS_CPUTIME_ID: to the nanosecond, where rusage counts ticks).
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// selfPeakRSS reads this process's VmHWM; 0 where /proc is absent.
func selfPeakRSS() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseUint(f[0], 10, 64)
				return kb << 10
			}
		}
	}
	return 0
}
