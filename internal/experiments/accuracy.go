package experiments

import (
	"io"

	"modelnet"
	"modelnet/internal/vtime"
)

// Accuracy reproduces §3.1's baseline accuracy claim: with the scheduler
// at the kernel's highest priority, every packet-hop is emulated to within
// the 100 µs timer granularity up to 100% CPU utilization — at most
// hops × 100 µs end-to-end (1 ms over a 10-hop path), and within a single
// tick once packet-debt correction (the paper's in-progress optimization)
// is enabled.

// AccuracyConfig parameterizes the experiment.
type AccuracyConfig struct {
	Hops     int
	Flows    int
	Duration modelnet.Duration
	Debt     bool
	Seed     int64
}

// DefaultAccuracy loads a 10-hop path heavily.
func DefaultAccuracy() AccuracyConfig {
	return AccuracyConfig{Hops: 10, Flows: 48, Duration: modelnet.Seconds(2), Seed: 8}
}

// AccuracyResult summarizes per-packet delivery lag.
type AccuracyResult struct {
	Debt      bool
	Packets   uint64
	MeanLagUs float64
	MaxLagUs  float64
	BoundUs   float64 // the claimed bound: hops×tick (or one tick with debt)
	Within    bool
}

// RunAccuracy measures both modes.
func RunAccuracy(cfg AccuracyConfig) ([]AccuracyResult, error) {
	var out []AccuracyResult
	for _, debt := range []bool{false, true} {
		r, err := runAccuracyPoint(cfg, debt)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func runAccuracyPoint(cfg AccuracyConfig, debt bool) (AccuracyResult, error) {
	prof := modelnet.DefaultProfile()
	prof.DebtHandling = debt
	em, err := bulkPairs(cfg.Flows, cfg.Hops, 100*vtime.Millisecond, prof, cfg.Seed)
	if err != nil {
		return AccuracyResult{}, err
	}
	em.RunFor(cfg.Duration)
	acc := em.Emu.Accuracy
	bound := vtime.Duration(cfg.Hops+1) * prof.Tick
	if debt {
		bound = prof.Tick
	}
	return AccuracyResult{
		Debt:      debt,
		Packets:   acc.Count,
		MeanLagUs: acc.MeanLag().Micros(),
		MaxLagUs:  vtime.Duration(acc.MaxLag).Micros(),
		BoundUs:   bound.Micros(),
		Within:    acc.WithinBound(bound),
	}, nil
}

// PrintAccuracy renders the results.
func PrintAccuracy(w io.Writer, rows []AccuracyResult) {
	fprintf(w, "Baseline accuracy (§3.1): per-packet delivery lag under load\n")
	fprintf(w, "%6s %10s %12s %12s %10s %7s\n", "debt", "packets", "mean (µs)", "max (µs)", "bound", "within")
	for _, r := range rows {
		fprintf(w, "%6v %10d %12.1f %12.1f %10.0f %7v\n",
			r.Debt, r.Packets, r.MeanLagUs, r.MaxLagUs, r.BoundUs, r.Within)
	}
}
