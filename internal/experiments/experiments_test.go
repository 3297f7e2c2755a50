package experiments

import (
	"strings"
	"testing"

	"modelnet"
)

// These tests run quick versions of each experiment — the paper's
// configuration with a few fields shrunk — and assert the paper's
// qualitative findings: who wins, where crossovers fall. Table 1 runs at
// the paper's parameters and is held to its published numbers too.
// cmd/mnbench and the root BenchmarkFigures run every figure as published.

func TestFig4Shape(t *testing.T) {
	cfg := DefaultFig4()
	cfg.Hops = []int{1, 8}
	cfg.Flows = []int{24, 96}
	cfg.Duration = modelnet.Seconds(1.0)
	rows, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[[2]int]Fig4Row{}
	for _, r := range rows {
		byKey[[2]int{r.Hops, r.Flows}] = r
	}
	low1 := byKey[[2]int{1, 24}]
	hi1 := byKey[[2]int{1, 96}]
	low8 := byKey[[2]int{8, 24}]
	hi8 := byKey[[2]int{8, 96}]

	// Linear region: 24 flows ≈ 24×~1200 pkt/s regardless of hops.
	if low1.Kpps < 24 || low1.Kpps > 33 {
		t.Errorf("1-hop 24-flow = %.1f Kpps, want ≈30", low1.Kpps)
	}
	if low8.Kpps < 24 || low8.Kpps > 33 {
		t.Errorf("8-hop 24-flow = %.1f Kpps, want ≈30", low8.Kpps)
	}
	// 1-hop saturation is NIC-bound near 120 Kpkt/s with CPU well below 100%.
	if hi1.Kpps < 100 || hi1.Kpps > 130 {
		t.Errorf("1-hop 96-flow = %.1f Kpps, want ≈120 (NIC-bound)", hi1.Kpps)
	}
	if hi1.CPUUtil > 0.8 {
		t.Errorf("1-hop saturation CPU %.0f%%, want well under 100%%", hi1.CPUUtil*100)
	}
	// 8-hop is CPU-bound below the NIC bound.
	if hi8.Kpps >= hi1.Kpps {
		t.Errorf("8-hop saturation %.1f ≥ 1-hop %.1f: CPU crossover missing", hi8.Kpps, hi1.Kpps)
	}
	if hi8.CPUUtil < hi1.CPUUtil {
		t.Errorf("8-hop CPU %.2f < 1-hop %.2f", hi8.CPUUtil, hi1.CPUUtil)
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := RunTable1(DefaultTable1())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("rows: %v", rows)
	}
	// The paper's measurements, within ±15%.
	for _, want := range []struct {
		row  int
		kpps float64
	}{{0, 462.5}, {len(rows) - 1, 155.8}} {
		if got := rows[want.row].Kpps; got < want.kpps*0.85 || got > want.kpps*1.15 {
			t.Errorf("%d%% crossing: %.1f Kpkt/s, paper %.1f (±15%%)", rows[want.row].CrossPct, got, want.kpps)
		}
	}
	// Monotonic degradation with crossing fraction, ~3x from 0% to 100%.
	for i := 1; i < len(rows); i++ {
		if rows[i].Kpps >= rows[i-1].Kpps {
			t.Errorf("throughput not degrading: %+v", rows)
			break
		}
	}
	ratio := rows[0].Kpps / rows[len(rows)-1].Kpps
	if ratio < 2 || ratio > 5 {
		t.Errorf("0%%/100%% ratio = %.2f, paper ≈3", ratio)
	}
	if rows[0].Tunnels != 0 {
		t.Errorf("0%% crossing produced %d tunnels", rows[0].Tunnels)
	}
	if rows[len(rows)-1].Tunnels == 0 {
		t.Error("100% crossing produced no tunnels")
	}
}

func TestFig5Shape(t *testing.T) {
	cfg := DefaultFig5()
	cfg.Routers = 10
	cfg.VNsPerRouter = 10
	cfg.RingMbps = 10 // keep the ring under-provisioned
	cfg.Duration = modelnet.Seconds(10)
	series, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig5Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	hop := byName["hop-by-hop"]
	ns2 := byName["ns2 hop-by-hop 10Mb ring"]
	ns2fat := byName["ns2 hop-by-hop 40Mb ring"]
	lastMile := byName["last-mile"]
	e2e := byName["end-to-end"]

	// End-to-end: no interior contention — every flow gets ≈2 Mb/s.
	if p10 := cdfAtP(e2e.CDF, 0.10); p10 < 1500 {
		t.Errorf("end-to-end p10 = %.0f kbit/s, want ≈2000 (no contention)", p10)
	}
	// Hop-by-hop: constrained ring → mean well below 2 Mb/s and below e2e.
	if hop.Mean >= e2e.Mean*0.9 {
		t.Errorf("hop-by-hop mean %.0f not below end-to-end %.0f", hop.Mean, e2e.Mean)
	}
	// Emulation matches the ns2 reference within 20%.
	diff := hop.Mean/ns2.Mean - 1
	if diff < -0.2 || diff > 0.2 {
		t.Errorf("hop-by-hop mean %.0f vs ns2 %.0f: %.0f%% apart", hop.Mean, ns2.Mean, diff*100)
	}
	// Last-mile ≈ over-provisioned ns2 ring (both ignore ring contention).
	if lastMile.Mean < ns2fat.Mean*0.75 || lastMile.Mean > ns2fat.Mean*1.25 {
		t.Errorf("last-mile mean %.0f vs 4x-ring ns2 %.0f", lastMile.Mean, ns2fat.Mean)
	}
	// And last-mile sits above hop-by-hop (it removes ring contention).
	if lastMile.Mean <= hop.Mean {
		t.Errorf("last-mile %.0f ≤ hop-by-hop %.0f", lastMile.Mean, hop.Mean)
	}
}

func TestFig6Shape(t *testing.T) {
	cfg := DefaultFig6()
	cfg.Nprogs = []int{1, 8, 100}
	cfg.InstrPerB = []float64{50, 65, 80, 95}
	cfg.Duration = modelnet.Seconds(1)
	rows, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := func(nprog int, ipb float64) float64 {
		for _, r := range rows {
			if r.Nprog == nprog && r.InstrPerB == ipb {
				return r.AggKbitps
			}
		}
		t.Fatalf("missing point %d/%v", nprog, ipb)
		return 0
	}
	// At 50 instr/byte everyone sustains ≈95 Mb/s.
	for _, np := range []int{1, 8, 100} {
		if v := at(np, 50); v < 85000 || v > 100000 {
			t.Errorf("nprog %d @50: %.0f kbit/s, want ≈95000", np, v)
		}
	}
	// At 95 instr/byte all are CPU-bound, and higher multiplexing is slower.
	v1, v100 := at(1, 95), at(100, 95)
	if v1 >= 90000 {
		t.Errorf("nprog 1 @95 = %.0f, should be compute-bound below the link", v1)
	}
	if v100 >= v1 {
		t.Errorf("nprog 100 (%.0f) ≥ nprog 1 (%.0f) at 95 instr/byte", v100, v1)
	}
	// Break-even for nprog=1 between 65 and 80.
	if at(1, 65) < 90000 {
		t.Errorf("nprog 1 @65 = %.0f, should still be link-bound", at(1, 65))
	}
}

func TestFig7Shape(t *testing.T) {
	cfg := DefaultCFS()
	cfg.WindowsKB = []int{0, 24, 96}
	cfg.Downloaders = []int{0, 6}
	rows, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("rows: %v", rows)
	}
	// Larger prefetch windows speed downloads substantially.
	first, last := rows[0], rows[len(rows)-1]
	if last.Speed12 < first.Speed12*2 {
		t.Errorf("prefetch did not help: %.1f -> %.1f KB/s", first.Speed12, last.Speed12)
	}
	// The 1-machine and 12-machine curves should track each other (the
	// multiplexing claim): within 35% at every window.
	for _, r := range rows {
		ratio := r.Speed1 / r.Speed12
		if ratio < 0.65 || ratio > 1.35 {
			t.Errorf("window %d: 1-machine %.1f vs 12-machine %.1f (ratio %.2f)",
				r.WindowKB, r.Speed1, r.Speed12, ratio)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	cfg := DefaultFig9()
	cfg.PairLimit = 24
	series, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series: %d", len(series))
	}
	med := func(i int) float64 { return cdfAtP(series[i].CDF, 0.5) }
	// Larger transfers achieve higher speed (slow start amortized).
	if !(med(0) < med(1) && med(1) < med(2)) {
		t.Errorf("medians not increasing with size: %.1f %.1f %.1f", med(0), med(1), med(2))
	}
	// 8KB transfers are slow-start dominated: well under 200 KB/s median.
	if med(0) > 250 {
		t.Errorf("8KB median %.1f KB/s implausibly fast", med(0))
	}
}

func TestFig11Shape(t *testing.T) {
	cfg := DefaultFig11()
	cfg.ClientsPerSite = 15
	cfg.TraceDuration = modelnet.Seconds(40)
	series, err := RunFig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series: %d", len(series))
	}
	p90 := func(i int) float64 { return cdfAtP(series[i].CDF, 0.90) }
	// Adding the second replica improves tail latency substantially; the
	// third is marginal by comparison.
	if p90(1) > p90(0)*0.8 {
		t.Errorf("2nd replica: p90 %.3f -> %.3f, want big improvement", p90(0), p90(1))
	}
	gain2 := p90(0) - p90(1)
	gain3 := p90(1) - p90(2)
	if gain3 > gain2 {
		t.Errorf("3rd replica gain (%.3f) exceeds 2nd's (%.3f)", gain3, gain2)
	}
}

func TestFig12Shape(t *testing.T) {
	cfg := DefaultFig12()
	cfg.Members = 40
	cfg.Duration = modelnet.Seconds(600)
	cfg.PerturbFrom = modelnet.Seconds(150)
	cfg.PerturbTo = modelnet.Seconds(350)
	cfg.SampleEvery = modelnet.Seconds(25)
	cfg.TransitDomains, cfg.TransitPerDomain = 2, 3
	cfg.StubsPerTransit, cfg.RoutersPerStub = 3, 6
	res, err := RunFig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 8 {
		t.Fatalf("only %d samples", len(res.Rows))
	}
	var preEnd, perturbMax, final Fig12Row
	for _, r := range res.Rows {
		switch {
		case r.T <= cfg.PerturbFrom.Seconds():
			preEnd = r
		case r.T <= cfg.PerturbTo.Seconds():
			if r.MaxDelay > perturbMax.MaxDelay {
				perturbMax = r
			}
		}
		final = r
	}
	// The overlay converges to reasonable cost before perturbation.
	if preEnd.CostRatio <= 0 || preEnd.CostRatio > 3.0 {
		t.Errorf("pre-perturbation cost ratio %.2f", preEnd.CostRatio)
	}
	// Perturbation raises worst-case delay.
	if perturbMax.MaxDelay <= preEnd.MaxDelay {
		t.Errorf("perturbation did not raise delay: %.3f vs %.3f",
			perturbMax.MaxDelay, preEnd.MaxDelay)
	}
	// After conditions subside the overlay keeps delay at/below target.
	if final.MaxDelay > cfg.TargetDelay*1.2 {
		t.Errorf("final max delay %.3f above target %.1f", final.MaxDelay, cfg.TargetDelay)
	}
	if res.SPTDelay <= 0 || res.MSTCost <= 0 {
		t.Errorf("references: SPT=%v MST=%v", res.SPTDelay, res.MSTCost)
	}
}

func TestAccuracyBounds(t *testing.T) {
	cfg := DefaultAccuracy()
	cfg.Flows = 16
	cfg.Duration = modelnet.Seconds(1)
	rows, err := RunAccuracy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	for _, r := range rows {
		if r.Packets == 0 {
			t.Fatalf("no packets delivered: %+v", r)
		}
		if !r.Within {
			t.Errorf("debt=%v: max lag %.1f µs exceeds bound %.0f µs", r.Debt, r.MaxLagUs, r.BoundUs)
		}
	}
	// Debt handling must tighten the observed worst case.
	if rows[1].MaxLagUs > rows[0].MaxLagUs {
		t.Errorf("debt handling worsened lag: %.1f vs %.1f", rows[1].MaxLagUs, rows[0].MaxLagUs)
	}
}

func TestSelectFigures(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string // nil: an error naming the table's entries
	}{
		{"all", []string{"fig4", "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig11", "fig12", "scale", "ablations", "accuracy"}},
		{"fig5", []string{"fig5"}},
		{" accuracy , fig4,table1 ", []string{"fig4", "table1", "accuracy"}},
		{"fig4,nosuch", nil},
		{"", nil},
	} {
		figs, err := SelectFigures(tc.list)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), "fig4, table1, fig5") {
				t.Errorf("SelectFigures(%q) = %d figures, %v; want an error listing the figures", tc.list, len(figs), err)
			}
			continue
		}
		var got []string
		for _, f := range figs {
			got = append(got, f.Name)
		}
		if err != nil || strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("SelectFigures(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
		}
	}
}
