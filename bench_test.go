package modelnet_test

// One benchmark per table and figure in the paper's evaluation. Each bench
// runs the scaled experiment and prints the same rows/series the paper
// reports (use -v to see them); cmd/mnbench runs the full-scale versions.
//
//	go test -bench=. -benchmem -benchtime 1x
//
// The work happens in virtual time, so b.N iterations re-run the whole
// experiment; benchtime 1x is the intended mode.

import (
	"os"
	"testing"

	"modelnet/internal/experiments"
)

// benchScale is the default scale for bench runs: small enough to finish
// in seconds, large enough to stay in each experiment's saturated regime.
const benchScale = 0.25

func out(b *testing.B) *os.File {
	if testing.Verbose() {
		return os.Stdout
	}
	return nil
}

func BenchmarkFig4CoreCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig4(experiments.ScaledFig4(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintFig4(out(b), rows)
	}
}

func BenchmarkTable1CrossCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(experiments.ScaledTable1(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintTable1(out(b), rows)
	}
}

func BenchmarkFig5Distillation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.RunFig5(experiments.ScaledFig5(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintFig5(out(b), series)
	}
}

func BenchmarkFig6Multiplexing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig6(experiments.ScaledFig6(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintFig6(out(b), rows)
	}
}

func BenchmarkFig7CFSPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig7(experiments.ScaledCFS(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintFig7(out(b), rows)
	}
}

func BenchmarkFig8CFSCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.RunFig8(experiments.ScaledCFS(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintFig8(out(b), series)
	}
}

func BenchmarkFig9TCPTransfers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.RunFig9(experiments.ScaledFig9(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintFig9(out(b), series)
	}
}

func BenchmarkFig11WebReplicas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.RunFig11(experiments.ScaledFig11(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintFig11(out(b), series)
	}
}

func BenchmarkFig12ACDC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig12(experiments.ScaledFig12(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintFig12(out(b), res)
	}
}

func BenchmarkAccuracyBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAccuracy(experiments.ScaledAccuracy(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintAccuracy(out(b), rows)
	}
}

func BenchmarkGnutella10k(b *testing.B) {
	// The paper's headline scale study: a 10,000-servent connectivity
	// measurement (scaled to 2,500 in bench mode; cmd/mnbench runs 10k).
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunScale(experiments.ScaledScale(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintScale(out(b), res)
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

func BenchmarkAblationRouteTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunRouteTableAblation()
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintRouteTableAblation(out(b), rows)
	}
}

func BenchmarkAblationPayloadCaching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunPayloadCachingAblation(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintPayloadCachingAblation(out(b), rows)
	}
}

func BenchmarkAblationRoutingFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFailoverAblation()
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintFailoverAblation(out(b), rows)
	}
}
