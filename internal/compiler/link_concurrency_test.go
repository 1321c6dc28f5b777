package compiler_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/vm"
)

// TestConcurrentLinkedCompiles: goroutines compiling the quick suite
// under several option sets from a cold prefix cache, racing to build
// each prefix and the prelude's cached verdicts and reading the shared
// prelude on both the link and the whole-program path (one program
// shadows car), get exactly what a serial compile gets, lint reports
// included. Run under -race, it also checks that nothing the compiles
// share is written.
func TestConcurrentLinkedCompiles(t *testing.T) {
	var srcs []string
	for _, name := range []string{"minieval", "typecheck", "tak", "cpstak", "deriv", "div-iter", "browse", "triang"} {
		p, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, p.Source)
	}
	srcs = append(srcs, "(define (car p) (cdr p))\n(list (car (cons 1 2)) (length '(1 2 3)))\n")

	var configs []compiler.Options
	for _, c := range []vm.Config{vm.DefaultConfig(), vm.BaselineConfig(), {ArgRegs: 1, UserRegs: 1, ScratchRegs: 8}} {
		o := compiler.DefaultOptions()
		o.Config = c
		configs = append(configs, o)
	}
	cs := compiler.DefaultOptions()
	cs.Config.CalleeSaveRegs = 4
	cs.CalleeSave = true
	cs.Saves = codegen.SaveEarly
	configs = append(configs, cs)
	// Checked twins of two option sets share their prefix entries.
	for _, o := range []compiler.Options{configs[0], cs} {
		o.Verify, o.Lint = true, true
		configs = append(configs, o)
	}

	type job struct{ src, cfg int }
	var jobs []job
	want := map[job]*compiler.Compiled{}
	for si, src := range srcs {
		for ci, opts := range configs {
			c, err := compiler.Compile(src, opts)
			if err != nil {
				t.Fatalf("program %d config %d: %v", si, ci, err)
			}
			jobs = append(jobs, job{si, ci})
			want[job{si, ci}] = c
		}
	}

	compiler.ColdPrefixes()
	const workers = 8
	errs := make(chan error, workers*len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i+w*len(jobs)/workers)%len(jobs)]
				got, err := compiler.Compile(srcs[j.src], configs[j.cfg])
				if err != nil {
					errs <- fmt.Errorf("program %d config %d: %v", j.src, j.cfg, err)
					continue
				}
				if d := compiler.SameProgram(got.Program, want[j].Program); d != "" || got.Stats != want[j].Stats {
					errs <- fmt.Errorf("program %d config %d: differs from the serial compile (%s, stats %v)", j.src, j.cfg, d, got.Stats == want[j].Stats)
				}
				if !reflect.DeepEqual(got.Lint, want[j].Lint) {
					errs <- fmt.Errorf("program %d config %d: lint report differs from the serial compile's", j.src, j.cfg)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
