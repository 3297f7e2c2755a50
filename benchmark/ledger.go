package main

// The parent side of the ledger: re-executes the binary once per run, checks
// every run's simulated results, and reduces the repeats to medians.

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// End-to-end metrics in print order, each with the share of the parent's
// median by which it may worsen (BENCHMARK.json records the same bounds).
// fail_share is the fifth end-to-end figure; the builder contract carries it
// as failed/attempted.
var endToEnd = []struct {
	name, unit string
	bound      float64
}{
	{"wall_ns_per_hop", "ns", 0.25},
	{"cpu_ns_per_hop", "ns", 0.25},
	{"setup_s", "s", 0.25},
	{"peak_rss_mb", "MiB", 0.2},
}

//go:embed golden.json
var embeddedGolden []byte

// goldenEntry pins one workload's simulated results at (Seed, Scale).
type goldenEntry struct {
	Seed         int64    `json:"seed"`
	Scale        float64  `json:"scale"`
	Injected     uint64   `json:"injected"`
	Delivered    uint64   `json:"delivered"`
	VirtualDrops uint64   `json:"virtual_drops"`
	Hops         uint64   `json:"hops"`
	Drops        []uint64 `json:"drops"`
	SimDigest    string   `json:"sim_digest"`
}

// loadGolden reads the golden table from path, or the embedded copy.
func loadGolden(path string) (map[string]goldenEntry, error) {
	data := embeddedGolden
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	g := map[string]goldenEntry{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

// config is what every measurement shares.
type config struct {
	seed  int64
	scale float64
	// budget is how long one workload's runs may take, oracle and warm-up
	// included; repeats are added until it is spent and at least minRepeats
	// are in. repeats, when positive, fixes the count instead.
	budget  time.Duration
	repeats int
	// tracedRepeats is how many of the timed repeats are each followed by
	// a traced run. trace.overhead_pct is the median over those pairs: the
	// host's speed drifts by more than any overhead between runs that are
	// not neighbours.
	tracedRepeats int
	// timeout turns a hung run into a counted failure.
	timeout time.Duration
	golden  map[string]goldenEntry
	logf    func(format string, args ...any)
}

const minRepeats = 3

// envChild marks a process spawnRun started. The real binary ignores it;
// the test binary's TestMain uses it to act as the child.
const envChild = "MODELNET_BENCH_CHILD"

// childRun is one child's outcome as the parent sees it.
type childRun struct {
	runResult
	cpu time.Duration // user+sys of the child and every process it reaped
}

// spawnRun re-executes the binary for one run and waits for it. On timeout
// the child's whole process group is killed, so no worker outlives it.
func spawnRun(a childArgs, timeout time.Duration) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	arg, err := json.Marshal(a)
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	cmd.Env = append(os.Environ(), envChild+"=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	if ctx.Err() != nil {
		return childRun{}, fmt.Errorf("timed out after %v", timeout)
	}
	if err != nil {
		return childRun{}, fmt.Errorf("child: %w", err)
	}
	var run childRun
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &run.runResult); err != nil {
		return childRun{}, fmt.Errorf("child output: %w", err)
	}
	if run.Err != "" {
		return childRun{}, errors.New(run.Err)
	}
	run.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	return run, nil
}

// stat is one metric's samples reduced: the reported value (the lower decile
// of the slices for the per-hop costs, the median of the runs for the rest),
// the samples' quartiles and their count.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// row is one workload's measured end-to-end result.
type row struct {
	Workload  string          `json:"workload"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	FailShare float64         `json:"fail_share"`
	Failures  []string        `json:"failures,omitempty"`
	SimDigest string          `json:"sim_digest"`
	Hops      uint64          `json:"hops"`
	Metrics   map[string]stat `json:"end_to_end"`
	// WholeWallNsPerHop is the median over the repeats of the whole timed
	// phase ÷ hops: what the slices add up to, stalls of the host included.
	WholeWallNsPerHop float64 `json:"whole_wall_ns_per_hop"`

	logf    func(format string, args ...any)
	first   *childRun // the workload's first good run: the oracle of a parallel workload
	timedNs []float64 // timed-phase wall of each good repeat
	setupS  []float64 // every set-up of the setup-only runs, in seconds
	// traced is the first traced run; overheadPct holds, per (repeat, traced
	// run) pair, how much longer the traced run's timed phase took.
	traced      *childRun
	overheadPct []float64
}

func (r *row) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	r.logf("FAIL %s: %s", r.Workload, r.Failures[len(r.Failures)-1])
}

// attempt makes one run and checks it; nil means the run failed and was
// counted.
func (r *row) attempt(cfg config, a childArgs, what string) *childRun {
	r.Attempted++
	run, err := spawnRun(a, cfg.timeout)
	if err != nil {
		r.fail("%s: %v", what, err)
		return nil
	}
	if err := r.check(cfg, &run); err != nil {
		r.fail("%s: %v", what, err)
		return nil
	}
	r.logf("  %-8s timed %7.1f ms  setup %6.1f ms  cpu %5.2f s  rss %6.1f MiB", what,
		float64(run.TimedNs)/1e6, float64(run.SetupNs)/1e6, run.cpu.Seconds(), float64(run.PeakRSSBytes)/(1<<20))
	return &run
}

// setupOnly makes one run of set-ups alone and keeps their times.
func (r *row) setupOnly(cfg config, a childArgs) {
	a.SetupOnly = true
	r.Attempted++
	run, err := spawnRun(a, cfg.timeout)
	if err != nil {
		r.fail("setup-only: %v", err)
		return
	}
	for _, ns := range run.SetupsNs {
		r.setupS = append(r.setupS, float64(ns)/1e9)
	}
}

// check holds a run's simulated results against conservation, the oracle
// (or the workload's first run), and the golden entry where one applies. A
// speed-up that changes a simulated statistic fails here.
func (r *row) check(cfg config, run *childRun) error {
	t := run.Totals
	if t.Injected == 0 || t.Delivered == 0 {
		return fmt.Errorf("nothing simulated: %+v", t)
	}
	if t.Injected != t.Delivered+run.PhysAfterInject+t.VirtualDrops+uint64(t.InFlight) {
		return fmt.Errorf("conservation broken: %+v", t)
	}
	if r.SimDigest == "" {
		r.SimDigest, r.Hops, r.first = run.Digest, run.Hops, run
	} else if run.Digest != r.SimDigest {
		return fmt.Errorf("sim_digest %s differs from this workload's first run %s", run.Digest, r.SimDigest)
	}
	if run.Hops != 0 && run.Hops != r.Hops {
		return fmt.Errorf("hops %d differ from this workload's first run %d", run.Hops, r.Hops)
	}
	g, ok := cfg.golden[r.Workload]
	if !ok || g.Seed != cfg.seed || g.Scale != cfg.scale {
		return nil
	}
	if t.Injected != g.Injected || t.Delivered != g.Delivered || t.VirtualDrops != g.VirtualDrops ||
		r.Hops != g.Hops || !slices.Equal(run.Drops, g.Drops) || run.Digest != g.SimDigest {
		return fmt.Errorf("golden mismatch: got injected %d delivered %d virtual_drops %d hops %d drops %v digest %s, want %+v",
			t.Injected, t.Delivered, t.VirtualDrops, r.Hops, run.Drops, run.Digest, g)
	}
	return nil
}

// measure runs one workload: the sequential oracle where the workload is
// parallel, one discarded warm-up, then timed repeats — the first
// cfg.tracedRepeats of them each followed by a traced run, and each repeat
// of an in-process workload by a setup-only run, so that setup_s has several
// times the samples and they span the whole run.
func measure(w *workload, cfg config) *row {
	r := &row{Workload: w.name, Metrics: map[string]stat{}, logf: cfg.logf}
	base := childArgs{Workload: w.name, Seed: cfg.seed, Scale: cfg.scale}
	r.logf("%s (seed %d, scale %g)", w.name, cfg.seed, cfg.scale)
	begin := time.Now()
	if w.mode != modeSeq {
		ref := base
		ref.Ref = true
		if r.attempt(cfg, ref, "oracle") == nil {
			return r.finish(nil)
		}
	}
	r.attempt(cfg, base, "warm-up")
	var runs []*childRun
	var cycle time.Duration // how long the last repeat took, with all that follows it
	for i := 0; ; i++ {
		if cfg.repeats > 0 {
			if i >= cfg.repeats {
				break
			}
		} else if i >= minRepeats && time.Since(begin)+cycle > cfg.budget {
			break
		}
		start := time.Now()
		run := r.attempt(cfg, base, "run "+strconv.Itoa(i+1))
		if run == nil {
			if r.Failed >= minRepeats {
				break // a broken workload fails fast instead of burning the budget
			}
			continue
		}
		runs = append(runs, run)
		if i < cfg.tracedRepeats {
			t := base
			t.Traced = true
			if traced := r.attempt(cfg, t, "traced"); traced != nil {
				if r.traced == nil {
					r.traced = traced
				}
				r.overheadPct = append(r.overheadPct, 100*float64(traced.TimedNs-run.TimedNs)/float64(run.TimedNs))
			}
		}
		if w.mode != modeFed {
			r.setupOnly(cfg, base)
		}
		cycle = time.Since(start)
	}
	return r.finish(runs)
}

// finish reduces the good repeats to the end-to-end metrics. The per-hop
// costs pool the slices of every repeat (a parallel repeat is one slice) and
// are lower deciles: whatever the host does to a slice only ever adds to it.
// setup_s pools the set-up of every repeat and setup-only run; those are net
// of stolen time, which errs both ways, so it is their median.
func (r *row) finish(runs []*childRun) *row {
	r.FailShare = float64(r.Failed) / float64(r.Attempted)
	if len(runs) == 0 {
		return r // every attempt failed and was counted
	}
	var wall, cpu, whole, rss []float64
	setup := r.setupS
	for _, run := range runs {
		r.timedNs = append(r.timedNs, float64(run.TimedNs))
		whole = append(whole, float64(run.TimedNs)/float64(r.Hops))
		setup = append(setup, float64(run.SetupNs)/1e9)
		rss = append(rss, float64(run.PeakRSSBytes)/(1<<20))
		parts := run.Slices
		if len(parts) == 0 {
			parts = []timedSlice{{run.TimedNs, run.cpu.Nanoseconds(), r.Hops}}
		}
		for _, s := range parts {
			if s.Hops > 0 {
				wall = append(wall, float64(s.WallNs)/float64(s.Hops))
				cpu = append(cpu, float64(s.CPUNs)/float64(s.Hops))
			}
		}
	}
	r.WholeWallNsPerHop = median(whole)
	r.logf("  wall ns/hop over %d slices: p10 %.0f  p50 %.0f; whole phase %.0f; setup over %d set-ups: p10 %.4f  p50 %.4f s",
		len(wall), quantile(wall, 0.1), quantile(wall, 0.5), r.WholeWallNsPerHop,
		len(setup), quantile(setup, 0.1), quantile(setup, 0.5))
	r.Metrics["wall_ns_per_hop"] = reduce(wall, "ns", lowerDecile)
	r.Metrics["cpu_ns_per_hop"] = reduce(cpu, "ns", lowerDecile)
	r.Metrics["setup_s"] = reduce(setup, "s", 0.5)
	r.Metrics["peak_rss_mb"] = reduce(rss, "MiB", 0.5)
	return r
}

const lowerDecile = 0.1

// quantile is the p-quantile of xs, interpolated between neighbours.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	j := int(pos)
	if j+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[j] + (pos-float64(j))*(s[j+1]-s[j])
}

// reduce summarizes xs: the p-quantile as the value, beside the quartiles and
// the sample count.
func reduce(xs []float64, unit string, p float64) stat {
	return stat{Value: quantile(xs, p), Unit: unit, Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}
