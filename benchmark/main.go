// Command benchmark is the repository's perf ledger: wall-ns per emulated
// packet-hop on six workloads, each run in a fresh child process with its
// timed phase cut into slices, with per-layer probes and a traced pass. See
// README.md in this directory.
//
//	bash benchmark/run.sh                      every workload, probes, traced pass
//	bash benchmark/run.sh -workload ring-seq   one workload, one result line
//	bash benchmark/run.sh -probes              the layer probes alone
//	bash benchmark/run.sh -selfcheck           two sets of the gated workloads, gaps beside bounds
//	bash benchmark/run.sh -regen               rewrite benchmark/golden.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	_ "modelnet/internal/experiments" // registers the federation scenarios
	"modelnet/internal/fednet"
)

// defaultSeed is the seed golden.json pins; heldOutSeed is exercised only
// by -selfcheck.
const (
	defaultSeed = 11
	heldOutSeed = 12
)

func main() {
	// The benchmark is its own federation worker fleet.
	fednet.MaybeRunWorker()

	var (
		workloadFlag  = flag.String("workload", "", "run this one workload and print one result line (the driver contract)")
		workloadsFlag = flag.String("workloads", "", "comma-separated subset for the full ledger (default: all)")
		seed          = flag.Int64("seed", defaultSeed, "workload seed; every generated input derives from it")
		seconds       = flag.Float64("seconds", 30, "how long one workload's runs may take under -workload, oracle and warm-up included")
		repeats       = flag.Int("repeats", 0, "fix the number of timed repeats per workload (0: 5 in the full ledger, -seconds with -workload)")
		scale         = flag.Float64("scale", 1, "multiply every workload's virtual duration (never its topology)")
		traceFlag     = flag.String("trace", "0", "0: end-to-end metrics; 1: the traced pass and per-layer metrics; a path: also write the spans there as Chrome trace JSON")
		goldenPath    = flag.String("golden", "", "golden table to check against (default: the embedded benchmark/golden.json)")
		timeout       = flag.Duration("timeout", 60*time.Second, "per-run timeout; a run that exceeds it is a counted failure")
		probesOnly    = flag.Bool("probes", false, "run the layer probes alone")
		selfcheck     = flag.Bool("selfcheck", false, "run two sets of the gated workloads back to back and hold their results against the bounds")
		regen         = flag.Bool("regen", false, "regenerate the golden table (to -golden, default benchmark/golden.json)")
		child         = flag.String("child", "", "internal: run the JSON-encoded childArgs in this process")
	)
	flag.Parse()

	if *child != "" {
		var a childArgs
		if err := json.Unmarshal([]byte(*child), &a); err != nil {
			fatal(fmt.Errorf("-child: %w", err))
		}
		if err := json.NewEncoder(os.Stdout).Encode(runChild(a)); err != nil {
			fatal(err)
		}
		return
	}
	if *probesOnly {
		probes, err := runProbes()
		if err != nil {
			fatal(err)
		}
		printJSON(map[string]any{"host": hostFacts(), "probes": withUnits(probes)})
		return
	}

	cfg := config{
		seed: *seed, scale: *scale, repeats: *repeats, timeout: *timeout,
		budget: time.Duration(*seconds * float64(time.Second)),
		logf:   func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	tracePass := *traceFlag != "0" && *traceFlag != ""
	traceOut := ""
	if tracePass && *traceFlag != "1" {
		traceOut = *traceFlag
	}
	if !*regen {
		var err error
		if cfg.golden, err = loadGolden(*goldenPath); err != nil {
			fatal(err)
		}
	}

	if *workloadFlag != "" {
		w, err := findWorkload(*workloadFlag)
		if err != nil {
			fatal(err)
		}
		os.Exit(driverRun(w, cfg, tracePass, traceOut))
	}

	selected := workloads
	if *selfcheck {
		// The bounds are claimed for the gated workloads only.
		selected = nil
		for _, w := range workloads {
			if w.gated {
				selected = append(selected, w)
			}
		}
	}
	if *workloadsFlag != "" {
		selected = nil
		for _, name := range strings.Split(*workloadsFlag, ",") {
			w, err := findWorkload(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, *w)
		}
	}
	if cfg.repeats == 0 {
		cfg.repeats = 5
	}
	switch {
	case *regen:
		path := *goldenPath
		if path == "" {
			path = "benchmark/golden.json"
		}
		os.Exit(regenGolden(selected, cfg, path))
	case *selfcheck:
		os.Exit(selfCheck(selected, cfg))
	default:
		os.Exit(fullLedger(selected, cfg, traceOut))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func printJSON(v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// hostFacts records what the numbers were measured on.
func hostFacts() map[string]any {
	kernel := "unknown"
	if out, err := exec.Command("uname", "-sr").Output(); err == nil {
		kernel = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "kernel": kernel,
		"network": "loopback, no real link",
	}
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches its unit to each per-layer metric present in m.
func withUnits(m map[string]float64) map[string]metricValue {
	out := map[string]metricValue{}
	for _, l := range perLayer {
		if v, ok := m[l.name]; ok {
			out[l.name] = metricValue{v, l.unit}
		}
	}
	return out
}

// layerTable assembles one workload's per-layer table from the traced run
// measure made (plus, on ring-seq, one extra run with Options.Trace on).
func layerTable(w *workload, cfg config, r *row, probes map[string]float64) (map[string]float64, []span) {
	if r.traced == nil {
		return nil, nil
	}
	var pkt *childRun
	if w.name == "ring-seq" {
		p := childArgs{Workload: w.name, Seed: cfg.seed, Scale: cfg.scale, PktTrace: true}
		if pkt = r.attempt(cfg, p, "pkttrace"); pkt == nil {
			return nil, nil
		}
	}
	return layerMetrics(w, probes, r.traced, r.Hops, median(r.timedNs), median(r.overheadPct), pkt), r.traced.Spans
}

// driverRun is the builder contract: one workload, one JSON object as the
// last line of stdout. With trace off the metrics are the end-to-end ones;
// with trace on, the per-layer ones.
func driverRun(w *workload, cfg config, tracePass bool, traceOut string) int {
	metrics := map[string]metricValue{}
	var r *row
	if !tracePass {
		r = measure(w, cfg)
		for _, m := range endToEnd {
			if s, ok := r.Metrics[m.name]; ok {
				metrics[m.name] = metricValue{s.Value, s.Unit}
			}
		}
	} else {
		probes, err := runProbes()
		if err != nil {
			fatal(err)
		}
		// The per-layer numbers come from the traced runs; a few pairs of
		// untraced and traced runs are all this mode needs.
		cfg.repeats, cfg.tracedRepeats = minRepeats, minRepeats
		r = measure(w, cfg)
		layers, spans := layerTable(w, cfg, r, probes)
		metrics = withUnits(layers)
		if traceOut != "" && spans != nil {
			if err := writeChrome(traceOut, map[string][]span{w.name: spans}, []string{w.name}); err != nil {
				fatal(err)
			}
		}
	}
	correct := r.Failed == 0 && len(metrics) > 0
	b, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !correct {
		return 1
	}
	return 0
}

// fullLedger runs every selected workload, the probes and the traced pass,
// and prints one JSON document with every metric by name.
func fullLedger(selected []workload, cfg config, traceOut string) int {
	cfg.tracedRepeats = 3
	probes, err := runProbes()
	if err != nil {
		fatal(err)
	}
	type entry struct {
		*row
		Why      string                 `json:"why"`
		PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	}
	doc := map[string]any{"host": hostFacts(), "seed": cfg.seed, "scale": cfg.scale}
	results := map[string]entry{}
	spans := map[string][]span{}
	var order []string
	failed := 0
	for i := range selected {
		w := &selected[i]
		r := measure(w, cfg)
		e := entry{row: r, Why: w.why}
		if layers, sp := layerTable(w, cfg, r, probes); layers != nil {
			e.PerLayer = withUnits(layers)
			spans[w.name] = sp
			order = append(order, w.name)
		}
		failed += r.Failed
		results[w.name] = e
	}
	// The three ring workloads simulate the same thing; their digests are
	// the cross-mode oracle.
	ring := ""
	for name, e := range results {
		if strings.HasPrefix(name, "ring-") && e.SimDigest != "" {
			if ring != "" && e.SimDigest != ring {
				cfg.logf("FAIL ring-* workloads disagree on sim_digest")
				failed++
			}
			ring = e.SimDigest
		}
	}
	doc["workloads"] = results
	printJSON(doc)
	if traceOut != "" {
		if err := writeChrome(traceOut, spans, order); err != nil {
			fatal(err)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// regenGolden rewrites the golden table from the benchmark's own runs: each
// entry comes from the workload's first run (the sequential oracle for
// parallel workloads) after the workload's other runs have matched it.
func regenGolden(selected []workload, cfg config, path string) int {
	golden := map[string]goldenEntry{}
	cfg.repeats = 1
	for i := range selected {
		r := measure(&selected[i], cfg)
		if r.Failed > 0 {
			return 1
		}
		t := r.first.Totals
		golden[r.Workload] = goldenEntry{
			Seed: cfg.seed, Scale: cfg.scale,
			Injected: t.Injected, Delivered: t.Delivered, VirtualDrops: t.VirtualDrops,
			Hops: r.Hops, Drops: r.first.Drops, SimDigest: r.SimDigest,
		}
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	cfg.logf("wrote %s (%d workloads)", path, len(golden))
	return 0
}

// selfCheck runs two sets back to back and prints, per (metric, workload),
// the relative gap between the two results beside its bound. A gap beyond
// its bound, or any failed run, fails the check. One more set at the
// held-out seed exercises the checks that do not depend on golden.json.
func selfCheck(selected []workload, cfg config) int {
	type line struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		First    float64 `json:"first"`
		Second   float64 `json:"second"`
		Gap      float64 `json:"gap"` // (second-first)/first; all metrics are lower-is-better
		Bound    float64 `json:"bound"`
		Within   bool    `json:"within"`
	}
	var lines []line
	ok := true
	sets := [2]map[string]*row{{}, {}}
	for s := range sets {
		for i := range selected {
			r := measure(&selected[i], cfg)
			sets[s][r.Workload] = r
			ok = ok && r.Failed == 0
		}
	}
	for i := range selected {
		name := selected[i].name
		for _, m := range endToEnd {
			a, b := sets[0][name].Metrics[m.name], sets[1][name].Metrics[m.name]
			gap := ratio(b.Value-a.Value, a.Value)
			l := line{name, m.name, a.Value, b.Value, gap, m.bound, a.N > 0 && b.N > 0 && gap <= m.bound}
			ok = ok && l.Within
			lines = append(lines, l)
		}
	}
	held := cfg
	held.seed = heldOutSeed
	held.repeats = 2
	heldFailed := 0
	for i := range selected {
		heldFailed += measure(&selected[i], held).Failed
	}
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].Metric < lines[j].Metric })
	printJSON(map[string]any{
		"host": hostFacts(), "seed": cfg.seed, "gaps": lines,
		"held_out_seed": heldOutSeed, "held_out_failed": heldFailed, "pass": ok && heldFailed == 0,
	})
	if !ok || heldFailed > 0 {
		return 1
	}
	return 0
}
