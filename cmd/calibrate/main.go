// Command calibrate regenerates every registered benchmark instance
// and reports its conflict-graph statistics, chromatic number (found
// with the SAT flow itself) and indicative solve times for a slow and
// a fast strategy on the unroutable configuration. It is the tool that
// produced (and re-checks) the RoutableW values baked into package
// mcnc.
//
// The chromatic number is measured with the incremental width search
// (mcnc.FindChi): one encode at the DSATUR upper bound, then one
// selector-assumption probe per width on a single solver that keeps
// its learnt clauses across widths. The indicative timing columns
// deliberately remain fresh single-shot solves, since they measure a
// strategy's cost on one decision problem.
//
// Usage:
//
//	calibrate [-instance name] [-timeout seconds] [-metrics-out file]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/experiments"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/sat"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibrate: ")
	instName := flag.String("instance", "", "calibrate a single instance (default all)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-solve timeout")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot (incremental search timers, learnt-clause reuse) to this file")
	flag.Parse()

	insts := mcnc.Instances()
	if *instName != "" {
		in, err := mcnc.ByName(*instName)
		if err != nil {
			log.Fatal(err)
		}
		insts = []mcnc.Instance{in}
	}

	slow, err := core.ParseStrategy("muldirect")
	if err != nil {
		log.Fatal(err)
	}
	fast, err := core.ParseStrategy("ITE-linear-2+muldirect/s1")
	if err != nil {
		log.Fatal(err)
	}

	reg := obs.NewRegistry()
	fmt.Printf("%-10s %6s %7s %4s %4s %4s | %11s %11s %11s\n",
		"instance", "V", "E", "clq", "dsat", "chi", "unsat-fast", "unsat-slow", "sat-fast")
	exit := 0
	for _, in := range insts {
		_, g, err := in.Build()
		if err != nil {
			log.Fatal(err)
		}

		chi, err := mcnc.FindChi(context.Background(), g, []core.Strategy{fast}, *timeout, reg)
		if err != nil {
			log.Fatal(err)
		}
		if !chi.Proved {
			fmt.Fprintf(os.Stderr, "  %s: width search stopped at chi<=%d after %d probes (per-probe timeout %v)\n",
				in.Name, chi.Chi, chi.Probes, *timeout)
		}

		fastU := experiments.RunStrategy(g, chi.Chi-1, fast, 0, *timeout, nil)
		slowU := experiments.RunStrategy(g, chi.Chi-1, slow, 0, *timeout, nil)
		fastS := experiments.RunStrategy(g, chi.Chi, fast, 0, *timeout, nil)
		fmt.Printf("%-10s %6d %7d %4d %4d %4d | %10.2fs%c %10.2fs%c %10.2fs%c\n",
			in.Name, g.N(), g.M(), chi.LowerBound, chi.UpperBound, chi.Chi,
			fastU.Total().Seconds(), mark(fastU.Status, sat.Unsat),
			slowU.Total().Seconds(), mark(slowU.Status, sat.Unsat),
			fastS.Total().Seconds(), mark(fastS.Status, sat.Sat))
		if chi.Chi != in.RoutableW {
			fmt.Printf("  !! registry says RoutableW=%d but measured chi=%d\n", in.RoutableW, chi.Chi)
			exit = 1
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := reg.Snapshot().WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	os.Exit(exit)
}

func mark(got, want sat.Status) byte {
	if got == want {
		return ' '
	}
	if got == sat.Unknown {
		return '?'
	}
	return '!'
}
