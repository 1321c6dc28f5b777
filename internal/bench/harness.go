package bench

import (
	"fmt"
	"io"

	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/prim"
	"repro/internal/vm"
)

// BenchFuel is the step budget every benchmark run executes under. The
// full suite's largest programs finish in well under a billion
// instructions, so the budget never alters a measurement; it exists so
// a miscompiled benchmark that loops forever fails deterministically
// (vm.ErrFuelExhausted) instead of hanging the harness.
const BenchFuel = 10_000_000_000

// Measurement is one (program, configuration) run.
type Measurement struct {
	Program  string
	Counters *vm.Counters
	Stats    codegen.Stats
	Result   string
}

// Measure compiles and runs one benchmark under opts, checking its
// expected result.
func Measure(p *Program, opts compiler.Options) (*Measurement, error) {
	return measure(p, opts, vm.DefaultCostModel(), vm.CountFull)
}

// MeasureFast is Measure on the machine's counters-off fast path
// (vm.CountEssential): the cost-model outputs — instructions, cycles,
// stalls and stack-reference counts — are byte-for-byte identical to
// Measure's (TestEngineEquivalence enforces this), but the diagnostic
// bookkeeping (per-kind reference breakdowns, call-graph
// classification, branch statistics) is skipped. Tables that consume
// only cycles and stack references use it.
func MeasureFast(p *Program, opts compiler.Options) (*Measurement, error) {
	return measure(p, opts, vm.DefaultCostModel(), vm.CountEssential)
}

// MeasureWithCost is Measure under an explicit machine cost model.
func MeasureWithCost(p *Program, opts compiler.Options, cost vm.CostModel) (*Measurement, error) {
	return measure(p, opts, cost, vm.CountFull)
}

func measure(p *Program, opts compiler.Options, cost vm.CostModel, mode vm.CounterMode) (*Measurement, error) {
	c, err := compiler.Compile(p.Source, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}

	m := vm.New(c.Program, io.Discard)
	m.SetCostModel(cost)
	m.Counting = mode
	m.MaxSteps = BenchFuel
	v, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	result := prim.WriteString(v)
	if p.Expect != "" && result != p.Expect {
		return nil, fmt.Errorf("%s: result %s, want %s", p.Name, result, p.Expect)
	}
	return &Measurement{
		Program:  p.Name,
		Counters: &m.Counters,
		Stats:    c.Stats,
		Result:   result,
	}, nil
}

// Configurations used throughout the experiments.

// PaperOptions is the paper's main configuration: lazy saves, eager
// restores, greedy shuffling, six argument and six user registers.
func PaperOptions() compiler.Options {
	return compiler.DefaultOptions()
}

// BaselineOptions is Table 3's baseline: no argument or user registers.
func BaselineOptions() compiler.Options {
	o := compiler.DefaultOptions()
	o.Config = vm.BaselineConfig()
	return o
}

// StrategyOptions returns the paper configuration with a different save
// strategy.
func StrategyOptions(s codegen.SaveStrategy) compiler.Options {
	o := compiler.DefaultOptions()
	o.Saves = s
	return o
}

// CalleeSaveOptions returns the §2.4/Table 5 callee-save configuration.
func CalleeSaveOptions(s codegen.SaveStrategy) compiler.Options {
	o := compiler.DefaultOptions()
	o.Config = vm.Config{ArgRegs: 6, UserRegs: 6, ScratchRegs: 8, CalleeSaveRegs: 6}
	o.CalleeSave = true
	o.Saves = s
	return o
}

// RegistersOptions returns the paper configuration with c argument and l
// user registers (the §4 register sweep).
func RegistersOptions(c, l int, shuffle codegen.ShuffleMethod) compiler.Options {
	o := compiler.DefaultOptions()
	o.Config = vm.Config{ArgRegs: c, UserRegs: l, ScratchRegs: 8}
	o.Shuffle = shuffle
	return o
}
