// Command mnbench regenerates the tables and figures of the paper's
// evaluation at the paper's parameters and prints their rows/series.
//
// Usage:
//
//	mnbench [-run all|fig4|table1|fig5|fig6|fig7|fig8|fig9|fig11|fig12|scale|ablations|accuracy]
//
// Everything runs in virtual time and is deterministic: all twelve steps
// take about 13 s of wall clock on a 2-vCPU host (fig4, the slowest, about
// 3 s). An unknown name in -run exits 2 before anything runs. The parallel
// and federated runtimes are measured by benchmark/ (bash benchmark/run.sh)
// and driven by hand with `modelnet -federate … -fedscenario <name>`.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"modelnet/internal/experiments"
	"modelnet/internal/obs"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiments to run, or 'all'")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of this process here")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit here")
	flag.Parse()
	figures, err := experiments.SelectFigures(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnbench:", err)
		os.Exit(2)
	}
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
	for _, f := range figures {
		start := time.Now()
		if err := f.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "mnbench: %s: %v\n", f.Name, err)
			os.Exit(1)
		}
		fmt.Printf("  [%s completed in %v]\n\n", f.Name, time.Since(start).Round(time.Millisecond))
	}
}
