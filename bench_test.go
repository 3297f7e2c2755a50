package modelnet_test

// One sub-benchmark per table and figure in the paper's evaluation, at the
// paper's parameters — the same table cmd/mnbench runs
// (experiments.Figures). Use -v to see the rows/series:
//
//	go test -bench=Figures -benchtime 1x -run '^$' .
//
// The work happens in virtual time, so b.N iterations re-run the whole
// experiment; benchtime 1x is the intended mode (all twelve take ≈13 s).

import (
	"io"
	"os"
	"testing"

	"modelnet/internal/experiments"
)

func BenchmarkFigures(b *testing.B) {
	var w io.Writer = io.Discard
	if testing.Verbose() {
		w = os.Stdout
	}
	for _, f := range experiments.Figures {
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := f.Run(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
