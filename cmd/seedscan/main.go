// Command seedscan searches generator seeds for "challenging
// unroutable configurations" in the sense of the paper's Table 2:
// instances whose W-1 unroutability proof is expensive for the
// baseline muldirect encoding without symmetry breaking. The selected
// seeds are baked into package mcnc; this tool documents and
// reproduces that selection.
//
// For every size class and seed it regenerates the instance, finds the
// conflict graph's chromatic number with the shared incremental width
// search (mcnc.FindChi, racing two fast strategies), then times the
// baseline on the unroutable width. Selection uses only the baseline
// time (the paper's notion of "challenging"), never the times of the
// new encodings.
//
// Usage:
//
//	seedscan [-class name] [-seeds n] [-min seconds] [-cap seconds]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/experiments"
	"fpgasat/internal/fpga"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/sat"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("seedscan: ")
	class := flag.String("class", "", "scan a single size class (instance name)")
	seeds := flag.Int("seeds", 12, "seeds per class")
	minHard := flag.Duration("min", 2*time.Second, "minimum baseline time to call a seed challenging")
	capT := flag.Duration("cap", 30*time.Second, "per-solve cap")
	flag.Parse()

	fastPair := []core.Strategy{
		mustStrategy("ITE-log/s1"),
		mustStrategy("ITE-linear-2+muldirect/s1"),
	}
	slow := mustStrategy("muldirect")

	for _, in := range mcnc.Instances() {
		if *class != "" && in.Name != *class {
			continue
		}
		if !in.Hard {
			continue
		}
		fmt.Printf("== class %s (%dx%d, %d nets)\n", in.Name, in.Gen.Cols, in.Gen.Rows, in.Gen.NumNets)
		base := in.Gen.Seed
		for s := 0; s < *seeds; s++ {
			gen := in.Gen
			gen.Seed = base + int64(1000*s)
			nl, err := fpga.Generate(in.Name, gen)
			if err != nil {
				log.Fatal(err)
			}
			gr, _, err := fpga.RouteGlobal(nl, in.Route)
			if err != nil {
				log.Fatal(err)
			}
			g := gr.ConflictGraph()
			chi, err := mcnc.FindChi(context.Background(), g, fastPair, *capT, nil)
			if err != nil {
				log.Fatal(err)
			}
			if !chi.Proved {
				fmt.Printf("  seed %-6d V=%-4d E=%-5d chi=? (timeout)\n", gen.Seed, g.N(), g.M())
				continue
			}
			tSlow := experiments.RunStrategy(g, chi.Chi-1, slow, 0, *capT, nil)
			mark := " "
			if tSlow.Status == sat.Unknown || tSlow.Total() >= *minHard {
				mark = "*"
			}
			tF1 := experiments.RunStrategy(g, chi.Chi-1, fastPair[0], 0, *capT, nil)
			tF2 := experiments.RunStrategy(g, chi.Chi-1, fastPair[1], 0, *capT, nil)
			fmt.Printf("  seed %-6d V=%-4d E=%-5d clq=%d chi=%d | muldirect/-: %8.2fs%s %s  [%s: %.2fs, %s: %.2fs]\n",
				gen.Seed, g.N(), g.M(), chi.LowerBound, chi.Chi,
				tSlow.Total().Seconds(), timeoutSuffix(tSlow.Status), mark,
				fastPair[0].Name(), tF1.Total().Seconds(), fastPair[1].Name(), tF2.Total().Seconds())
		}
	}
}

func mustStrategy(s string) core.Strategy {
	st, err := core.ParseStrategy(s)
	if err != nil {
		log.Fatal(err)
	}
	return st
}

func timeoutSuffix(st sat.Status) string {
	if st == sat.Unknown {
		return "+"
	}
	return ""
}
