// Command lsrbench regenerates the paper's evaluation: every table and
// figure of "Register Allocation Using Lazy Saves, Eager Restores, and
// Greedy Shuffling" (PLDI'95), measured on the simulator.
//
// Usage:
//
//	lsrbench -all                # everything (several minutes)
//	lsrbench -table 3            # one table (1..5)
//	lsrbench -figure 2           # one figure (1, 2)
//	lsrbench -shuffle            # §3.1 shuffle statistics
//	lsrbench -sweep tak          # §4 register-count sweep
//	lsrbench -restores           # §2.2 eager-vs-lazy restore study
//	lsrbench -branch             # §6 branch prediction study
//	lsrbench -compiletime        # §4 compile-time profile
//	lsrbench -verify             # static translation validation sweep
//	lsrbench -lint               # static optimality (waste) sweep
//	lsrbench -waste              # static-vs-dynamic waste cross-validation
//	                             # plus the interprocedural waste audit
//	lsrbench -arena              # arena-lifetime escape analysis sweep
//	                             # (gates: benchmarks clean, corpus caught)
//	lsrbench -suite quick        # restrict tables to a fast subset
//
// Sustained-load SLO gate against a running lsrgate/lsrd (see
// DESIGN.md §16; scripts/loadgen.sh stands the fleet up):
//
//	lsrbench -loadurl http://localhost:8376
//
// Wall time is measured by the repository benchmark (perfbench/) and
// compared between paired runs on one host by scripts/perfpair.sh
// (DESIGN.md §12).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		table       = flag.Int("table", 0, "regenerate table N (1..5)")
		figure      = flag.Int("figure", 0, "regenerate figure N (1..2)")
		shuffle     = flag.Bool("shuffle", false, "§3.1 shuffle statistics")
		sweep       = flag.String("sweep", "", "§4 register sweep on the named benchmark")
		restores    = flag.Bool("restores", false, "§2.2 restore policy study")
		branch      = flag.Bool("branch", false, "§6 branch prediction study")
		compileTime = flag.Bool("compiletime", false, "§4 compile-time profile")
		ablation    = flag.Bool("ablation", false, "§2.1 simple-vs-revised save-algorithm ablation")
		verifySweep = flag.Bool("verify", false, "statically verify every benchmark under every swept configuration")
		lintSweep   = flag.Bool("lint", false, "run the optimality analyzer over every benchmark under every swept configuration")
		wasteTable  = flag.Bool("waste", false, "cross-validate static waste counts against the machine's dynamic counters")
		arenaSweep  = flag.Bool("arena", false, "run the arena-lifetime escape analysis over every benchmark and the seeded-violation corpus")
		all         = flag.Bool("all", false, "run everything")
		suite       = flag.String("suite", "full", "benchmark subset: full or quick")

		loadURL      = flag.String("loadurl", "", "drive sustained load at this lsrgate/lsrd base URL, report p50/p95/p99 + throughput and gate them against the default SLO")
		loadClients  = flag.Int("loadclients", 4, "concurrent load clients for -loadurl")
		loadDuration = flag.Duration("loadduration", 5*time.Second, "sustained-load duration for -loadurl")
	)
	flag.Parse()

	progs, err := suitePrograms(*suite)
	if err != nil {
		fail(err)
	}

	ran := false
	section := func(run func() error) {
		ran = true
		if err := run(); err != nil {
			fail(err)
		}
		fmt.Println()
	}

	if *all || *table == 1 {
		section(func() error { fmt.Print(bench.Table1()); return nil })
	}
	if *all || *table == 2 {
		section(func() error {
			_, text, err := bench.Table2(progs)
			fmt.Print(text)
			return err
		})
	}
	if *all || *table == 3 {
		section(func() error {
			_, text, err := bench.Table3(progs)
			fmt.Print(text)
			return err
		})
	}
	if *all || *table == 4 {
		section(func() error {
			_, text, err := bench.Table4()
			fmt.Print(text)
			return err
		})
	}
	if *all || *table == 5 {
		section(func() error {
			_, text, err := bench.Table5()
			fmt.Print(text)
			return err
		})
	}
	if *all || *figure == 1 {
		section(func() error {
			text, err := bench.Figure1(2000)
			fmt.Print(text)
			return err
		})
	}
	if *all || *figure == 2 {
		section(func() error {
			text, err := bench.Figure2()
			fmt.Print(text)
			return err
		})
	}
	if *all || *shuffle {
		section(func() error {
			_, text, err := bench.ShuffleStats(progs)
			fmt.Print(text)
			return err
		})
	}
	if *all || *sweep != "" {
		name := *sweep
		if name == "" {
			name = "tak"
		}
		section(func() error {
			p, err := bench.ByName(name)
			if err != nil {
				return err
			}
			_, text, err := bench.RegisterSweep(p)
			fmt.Print(text)
			return err
		})
	}
	if *all || *restores {
		section(func() error {
			_, text, err := bench.RestoreStudy(progs)
			fmt.Print(text)
			return err
		})
	}
	if *all || *branch {
		section(func() error {
			_, text, err := bench.BranchStudy(progs, 3)
			fmt.Print(text)
			return err
		})
	}
	if *all || *ablation {
		section(func() error {
			_, text, err := bench.SaveAlgorithmAblation(progs)
			fmt.Print(text)
			return err
		})
	}
	if *all || *verifySweep {
		section(func() error {
			text, err := bench.VerifySweep(progs)
			fmt.Print(text)
			return err
		})
	}
	if *all || *lintSweep {
		section(func() error {
			text, err := bench.LintSweep(progs)
			fmt.Print(text)
			return err
		})
	}
	if *all || *wasteTable {
		section(func() error {
			text, err := bench.WasteTable(progs)
			fmt.Print(text)
			return err
		})
		section(func() error {
			text, err := bench.InterprocAudit(progs)
			fmt.Print(text)
			return err
		})
	}
	if *all || *arenaSweep {
		section(func() error {
			text, err := bench.ArenaSweep(progs)
			fmt.Print(text)
			return err
		})
	}
	if *all || *compileTime {
		section(func() error {
			text, err := bench.CompileTimeStudy(progs, 3)
			fmt.Print(text)
			return err
		})
	}

	if *loadURL != "" {
		ran = true
		if err := runLoad(*loadURL, *loadClients, *loadDuration); err != nil {
			fail(err)
		}
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// runLoad drives the sustained-load harness at a gate or replica and
// gates the report against bench.DefaultSLO (see DESIGN.md §16).
func runLoad(url string, clients int, duration time.Duration) error {
	rep, err := bench.RunLoad(bench.LoadOptions{URL: url, Clients: clients, Duration: duration})
	if err != nil {
		return err
	}
	fmt.Printf("load: %d requests (%d errors) in %.1fs — %.1f rps, p50 %.2fms p95 %.2fms p99 %.2fms\n",
		rep.Requests, rep.Errors, rep.DurationSec, rep.ThroughputRPS, rep.P50Ms, rep.P95Ms, rep.P99Ms)
	slo := bench.DefaultSLO
	if err := bench.CheckSLO(rep, slo); err != nil {
		return err
	}
	fmt.Printf("load SLO gate passed (p99<=%.0fms, >=%.0f rps, err<=%.2f%%)\n",
		slo.P99MsMax, slo.ThroughputMin, slo.ErrorRateMax*100)
	return nil
}

// suitePrograms selects the benchmark set.
func suitePrograms(suite string) ([]*bench.Program, error) {
	switch suite {
	case "full":
		return bench.All(), nil
	case "quick":
		var out []*bench.Program
		for _, n := range []string{"minieval", "typecheck", "tak", "cpstak", "deriv", "div-iter", "browse", "triang"} {
			p, err := bench.ByName(n)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown suite %q (want full or quick)", suite)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lsrbench:", err)
	os.Exit(1)
}
