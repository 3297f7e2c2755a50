// Package experiments contains one driver per table and figure in the
// paper's evaluation (§3–§5). Each driver builds its workload on the public
// modelnet façade, runs it in virtual time, and returns the same rows or
// series the paper reports. Figures lists every one at the paper's
// parameters (the driver's DefaultX); cmd/mnbench prints them and the root
// bench_test.go regenerates them under `go test -bench`.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Figure is one step of the evaluation: Run regenerates it at the paper's
// parameters and prints its rows to w.
type Figure struct {
	Name string // the `mnbench -run` key
	Run  func(w io.Writer) error
}

// figure binds a driver's paper configuration, runner and printer into one
// Figure.
func figure[C, R any](name string, paper func() C, run func(C) (R, error), print func(io.Writer, R)) Figure {
	return Figure{name, func(w io.Writer) error {
		res, err := run(paper())
		if err == nil {
			print(w, res)
		}
		return err
	}}
}

// Figures is the paper's evaluation, in mnbench's order.
var Figures = []Figure{
	figure("fig4", DefaultFig4, RunFig4, PrintFig4),
	figure("table1", DefaultTable1, RunTable1, PrintTable1),
	figure("fig5", DefaultFig5, RunFig5, PrintFig5),
	figure("fig6", DefaultFig6, RunFig6, PrintFig6),
	figure("fig7", DefaultCFS, RunFig7, PrintFig7),
	figure("fig8", DefaultCFS, RunFig8, PrintFig8),
	figure("fig9", DefaultFig9, RunFig9, PrintFig9),
	figure("fig11", DefaultFig11, RunFig11, PrintFig11),
	figure("fig12", DefaultFig12, RunFig12, PrintFig12),
	figure("scale", DefaultScale, RunScale, PrintScale),
	{"ablations", func(w io.Writer) error {
		pc, err := RunPayloadCachingAblation()
		if err != nil {
			return err
		}
		PrintPayloadCachingAblation(w, pc)
		fo, err := RunFailoverAblation()
		if err != nil {
			return err
		}
		PrintFailoverAblation(w, fo)
		return nil
	}},
	figure("accuracy", DefaultAccuracy, RunAccuracy, PrintAccuracy),
}

// SelectFigures returns the entries of Figures named in a comma-separated
// list, in table order; "all" names every entry. The whole list is checked
// before anything runs: one unknown name (an empty one included) fails it.
func SelectFigures(list string) ([]Figure, error) {
	names := []string{"all"}
	for _, f := range Figures {
		names = append(names, f.Name)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(names, name) {
			return nil, fmt.Errorf("no figure %q (figures: %s)", name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	var out []Figure
	for _, f := range Figures {
		if want["all"] || want[f.Name] {
			out = append(out, f)
		}
	}
	return out, nil
}

// fprintf is the drivers' row printer.
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
