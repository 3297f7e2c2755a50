// Command mnbench regenerates every table and figure in the paper's
// evaluation at full (or chosen) scale and prints the rows/series.
//
// Usage:
//
//	mnbench [-scale 1.0] [-run all|fig4|table1|fig5|fig6|fig7|fig8|fig9|fig11|fig12|scale|ablations|accuracy]
//
// At -scale 1 (default) the workloads match the paper's parameters: full
// runs take minutes of wall-clock time because they emulate hundreds of
// seconds of virtual time over thousands of flows. The parallel and
// federated runtimes are measured by benchmark/ (bash benchmark/run.sh) and
// driven by hand with `modelnet -federate … -fedscenario <name>`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"modelnet/internal/experiments"
	"modelnet/internal/obs"
)

func main() {
	scale := flag.Float64("scale", 1.0, "experiment scale (1 = the paper's parameters)")
	run := flag.String("run", "all", "comma-separated experiments to run, or 'all'")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of this process here")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit here")
	flag.Parse()
	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnbench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "mnbench:", err)
		}
	}()

	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }
	s := *scale

	type step struct {
		name string
		fn   func() error
	}
	steps := []step{
		{"fig4", func() error {
			rows, err := experiments.RunFig4(experiments.ScaledFig4(s))
			if err != nil {
				return err
			}
			experiments.PrintFig4(os.Stdout, rows)
			return nil
		}},
		{"table1", func() error {
			rows, err := experiments.RunTable1(experiments.ScaledTable1(s))
			if err != nil {
				return err
			}
			experiments.PrintTable1(os.Stdout, rows)
			return nil
		}},
		{"fig5", func() error {
			series, err := experiments.RunFig5(experiments.ScaledFig5(s))
			if err != nil {
				return err
			}
			experiments.PrintFig5(os.Stdout, series)
			return nil
		}},
		{"fig6", func() error {
			rows, err := experiments.RunFig6(experiments.ScaledFig6(s))
			if err != nil {
				return err
			}
			experiments.PrintFig6(os.Stdout, rows)
			return nil
		}},
		{"fig7", func() error {
			rows, err := experiments.RunFig7(experiments.ScaledCFS(s))
			if err != nil {
				return err
			}
			experiments.PrintFig7(os.Stdout, rows)
			return nil
		}},
		{"fig8", func() error {
			series, err := experiments.RunFig8(experiments.ScaledCFS(s))
			if err != nil {
				return err
			}
			experiments.PrintFig8(os.Stdout, series)
			return nil
		}},
		{"fig9", func() error {
			series, err := experiments.RunFig9(experiments.ScaledFig9(s))
			if err != nil {
				return err
			}
			experiments.PrintFig9(os.Stdout, series)
			return nil
		}},
		{"fig11", func() error {
			series, err := experiments.RunFig11(experiments.ScaledFig11(s))
			if err != nil {
				return err
			}
			experiments.PrintFig11(os.Stdout, series)
			return nil
		}},
		{"fig12", func() error {
			res, err := experiments.RunFig12(experiments.ScaledFig12(s))
			if err != nil {
				return err
			}
			experiments.PrintFig12(os.Stdout, res)
			return nil
		}},
		{"scale", func() error {
			res, err := experiments.RunScale(experiments.ScaledScale(s))
			if err != nil {
				return err
			}
			experiments.PrintScale(os.Stdout, res)
			return nil
		}},
		{"ablations", func() error {
			rt, err := experiments.RunRouteTableAblation()
			if err != nil {
				return err
			}
			experiments.PrintRouteTableAblation(os.Stdout, rt)
			pc, err := experiments.RunPayloadCachingAblation(s)
			if err != nil {
				return err
			}
			experiments.PrintPayloadCachingAblation(os.Stdout, pc)
			fo, err := experiments.RunFailoverAblation()
			if err != nil {
				return err
			}
			experiments.PrintFailoverAblation(os.Stdout, fo)
			return nil
		}},
		{"accuracy", func() error {
			rows, err := experiments.RunAccuracy(experiments.ScaledAccuracy(s))
			if err != nil {
				return err
			}
			experiments.PrintAccuracy(os.Stdout, rows)
			return nil
		}},
	}
	ranAny := false
	for _, st := range steps {
		if !sel(st.name) {
			continue
		}
		ranAny = true
		start := time.Now()
		if err := st.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "mnbench: %s: %v\n", st.name, err)
			os.Exit(1)
		}
		fmt.Printf("  [%s completed in %v]\n\n", st.name, time.Since(start).Round(time.Millisecond))
	}
	if !ranAny {
		fmt.Fprintf(os.Stderr, "mnbench: no experiment matches -run %q\n", *run)
		os.Exit(2)
	}
}
