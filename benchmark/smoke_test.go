package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"modelnet/internal/fednet"
)

// TestMain lets the test binary play every process of the benchmark: a
// federation worker (MaybeRunWorker), and the child of a run (spawnRun sets
// envChild and passes the same flags the real binary gets).
func TestMain(m *testing.M) {
	fednet.MaybeRunWorker()
	if os.Getenv(envChild) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func smokeConfig(t *testing.T) config {
	return config{
		seed: defaultSeed, scale: 0.05, repeats: 1, tracedRepeats: 1,
		timeout: time.Minute, logf: t.Logf,
	}
}

// TestLedgerSmoke runs every workload at a twentieth of its virtual
// duration through the same code the ledger uses: oracle, warm-up, one
// timed repeat, one traced run.
func TestLedgerSmoke(t *testing.T) {
	cfg := smokeConfig(t)
	probes := map[string]float64{}
	if !testing.Short() {
		var err error
		if probes, err = runProbes(); err != nil {
			t.Fatal(err)
		}
		for name := range probes {
			if !nameRE.MatchString(name) {
				t.Errorf("probe name %q breaks the naming rule", name)
			}
		}
	}
	ring := ""
	for i := range workloads {
		w := &workloads[i]
		if testing.Short() && w.mode == modeFed {
			continue
		}
		r := measure(w, cfg)
		layers, spans := layerTable(w, cfg, r, probes)
		if r.Failed != 0 || r.FailShare != 0 {
			t.Fatalf("%s: %d of %d runs failed: %v", w.name, r.Failed, r.Attempted, r.Failures)
		}
		for _, m := range endToEnd {
			if s, ok := r.Metrics[m.name]; !ok || s.Value <= 0 || s.N < 1 {
				t.Errorf("%s: end-to-end metric %s = %+v", w.name, m.name, s)
			}
		}
		for _, l := range perLayer {
			if _, ok := layers[l.name]; !ok {
				t.Errorf("%s: per-layer metric %s not printed", w.name, l.name)
			}
		}
		sum := 0.0
		for name, v := range layers {
			if strings.HasPrefix(name, "share.") {
				sum += v
			}
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: share.* columns sum to %v, want 1", w.name, sum)
		}
		if len(spans) == 0 || spans[0].Name != "bench.run" {
			t.Errorf("%s: traced run kept no spans", w.name)
		}
		if strings.HasPrefix(w.name, "ring-") {
			if ring != "" && r.SimDigest != ring {
				t.Errorf("%s: sim_digest %s differs from the other ring workloads' %s", w.name, r.SimDigest, ring)
			}
			ring = r.SimDigest
		}
	}
}

// TestSeedAndGolden checks that the seed reaches the simulated results and
// that a golden entry that disagrees with them fails the run.
func TestSeedAndGolden(t *testing.T) {
	cfg := smokeConfig(t)
	w, err := findWorkload("ring-seq")
	if err != nil {
		t.Fatal(err)
	}
	base := measure(w, cfg)
	if base.Failed != 0 {
		t.Fatalf("ring-seq failed: %v", base.Failures)
	}
	other := cfg
	other.seed = heldOutSeed
	if r := measure(w, other); r.Failed != 0 || r.SimDigest == base.SimDigest {
		t.Errorf("seed %d: failures %v, digest %s (seed %d gave %s)", heldOutSeed, r.Failures, r.SimDigest, cfg.seed, base.SimDigest)
	}

	tot := base.first.Totals
	good := goldenEntry{
		Seed: cfg.seed, Scale: cfg.scale, Injected: tot.Injected, Delivered: tot.Delivered,
		VirtualDrops: tot.VirtualDrops, Hops: base.Hops, Drops: base.first.Drops, SimDigest: base.SimDigest,
	}
	cfg.golden = map[string]goldenEntry{w.name: good}
	if r := measure(w, cfg); r.Failed != 0 {
		t.Errorf("matching golden entry failed the run: %v", r.Failures)
	}
	bad := good
	bad.Hops++
	cfg.golden = map[string]goldenEntry{w.name: bad}
	if r := measure(w, cfg); r.Failed == 0 {
		t.Error("corrupted golden entry did not fail the run")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the program prints
// from, and to the naming rules.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program gates %d", len(spec.Workloads), len(gated))
	}
	for i, w := range spec.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, gated[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound != endToEnd[i].bound || m.Better != "lower" {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, perLayer[i])
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %q (%q) breaks the naming rules", m.Name, m.Unit)
		}
	}
}
