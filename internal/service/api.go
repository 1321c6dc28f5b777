package service

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/findings"
	"repro/internal/vm"
)

// OptionsRequest selects the allocator configuration for one request.
// Zero values mean the paper's defaults (lazy saves, eager restores,
// greedy shuffling, six argument and six user registers).
type OptionsRequest struct {
	// Saves is "lazy", "early", "late" or "simple".
	Saves string `json:"saves,omitempty"`
	// Restores is "eager" or "lazy".
	Restores string `json:"restores,omitempty"`
	// Shuffle is "greedy" or "naive".
	Shuffle string `json:"shuffle,omitempty"`
	// ArgRegs / UserRegs override the register counts (nil = default 6).
	ArgRegs  *int `json:"arg_regs,omitempty"`
	UserRegs *int `json:"user_regs,omitempty"`
	// CalleeSave > 0 enables the §2.4 callee-save mode with that many
	// callee-save registers.
	CalleeSave int `json:"callee_save,omitempty"`
	// Predict enables the §6 static branch prediction extension.
	Predict bool `json:"predict,omitempty"`
	// NoPrelude omits the Scheme runtime library.
	NoPrelude bool `json:"no_prelude,omitempty"`
}

// toCompiler lowers the request options to the internal form.
func (o *OptionsRequest) toCompiler() (compiler.Options, error) {
	opts := compiler.DefaultOptions()
	if o == nil {
		return opts, nil
	}
	var err error
	if o.Saves != "" {
		if opts.Saves, err = codegen.ParseSaveStrategy(o.Saves); err != nil {
			return opts, err
		}
	}
	if o.Restores != "" {
		if opts.Restores, err = codegen.ParseRestorePolicy(o.Restores); err != nil {
			return opts, err
		}
	}
	if o.Shuffle != "" {
		if opts.Shuffle, err = codegen.ParseShuffleMethod(o.Shuffle); err != nil {
			return opts, err
		}
	}
	if o.ArgRegs != nil {
		opts.Config.ArgRegs = *o.ArgRegs
	}
	if o.UserRegs != nil {
		opts.Config.UserRegs = *o.UserRegs
	}
	if o.CalleeSave > 0 {
		opts.Config.CalleeSaveRegs = o.CalleeSave
		opts.CalleeSave = true
	}
	opts.PredictBranches = o.Predict
	opts.NoPrelude = o.NoPrelude
	if err := opts.Config.Validate(); err != nil {
		return opts, err
	}
	return opts, nil
}

// RequestKey derives the content-addressed cache key for (source,
// options) exactly as the serving path does. The gate (internal/gate)
// uses it to consistent-hash-shard requests across replicas by cache
// key, so every replica's two-tier cache sees a stable partition of
// the key space.
func RequestKey(source string, opts *OptionsRequest) (CacheKey, error) {
	o, err := opts.toCompiler()
	if err != nil {
		return CacheKey{}, err
	}
	return KeyFor(source, o), nil
}

// CompileRequest is the body of POST /v1/compile.
type CompileRequest struct {
	Source  string          `json:"source"`
	Options *OptionsRequest `json:"options,omitempty"`
	// Verify additionally runs the translation validator; violations
	// fail the request with kind "verify-failed".
	Verify bool `json:"verify,omitempty"`
	// Dump includes the disassembly in the response.
	Dump bool `json:"dump,omitempty"`
}

// CompileResponse is the body of a successful POST /v1/compile.
type CompileResponse struct {
	// Key is the compilation's content address (hex SHA-256).
	Key string `json:"key"`
	// Cached reports whether the compilation was served from the cache.
	Cached bool `json:"cached"`
	// Stats are the allocator's static measurements.
	Stats codegen.Stats `json:"stats"`
	// Disassembly is the compiled code (only with Dump).
	Disassembly string `json:"disassembly,omitempty"`
}

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	Source  string          `json:"source"`
	Options *OptionsRequest `json:"options,omitempty"`
	// MaxSteps is the execution fuel for this run (0 = the server's
	// default; values above the server's maximum are clamped).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// Validate poisons caller-save registers at call boundaries.
	Validate bool `json:"validate,omitempty"`
	// Counters selects the counter fidelity: "full" (the default;
	// every field of the response's counters is populated) or
	// "essential" (the counters-off fast path: instructions, cycles,
	// stalls and stack references are still exact, but calls,
	// tail_calls and activations read zero).
	Counters string `json:"counters,omitempty"`
}

// counterMode lowers RunRequest.Counters.
func counterMode(s string) (vm.CounterMode, error) {
	switch s {
	case "", "full":
		return vm.CountFull, nil
	case "essential":
		return vm.CountEssential, nil
	}
	return 0, fmt.Errorf("unknown counter mode %q (want full or essential)", s)
}

// RunResponse is the body of a successful POST /v1/run.
type RunResponse struct {
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
	// Value is the program result in Scheme write notation.
	Value string `json:"value"`
	// Output is the program's display/write output (truncated at the
	// server's output limit).
	Output string `json:"output"`
	// Fuel is the step budget the run executed under.
	Fuel int64 `json:"fuel"`
	// Counters summarizes the machine's measurements.
	Counters RunCounters `json:"counters"`
}

// RunCounters is the dynamic-measurement summary returned by /v1/run.
type RunCounters struct {
	Instructions int64 `json:"instructions"`
	Cycles       int64 `json:"cycles"`
	StallCycles  int64 `json:"stall_cycles"`
	StackReads   int64 `json:"stack_reads"`
	StackWrites  int64 `json:"stack_writes"`
	Calls        int64 `json:"calls"`
	TailCalls    int64 `json:"tail_calls"`
	Activations  int64 `json:"activations"`
}

func summarizeCounters(c *vm.Counters) RunCounters {
	return RunCounters{
		Instructions: c.Instructions,
		Cycles:       c.Cycles,
		StallCycles:  c.StallCycles,
		StackReads:   c.StackReads,
		StackWrites:  c.StackWrites,
		Calls:        c.Calls,
		TailCalls:    c.TailCalls,
		Activations:  c.Activations,
	}
}

// CheckRequest is the body of POST /v1/verify and POST /v1/lint.
type CheckRequest struct {
	Source  string          `json:"source"`
	Options *OptionsRequest `json:"options,omitempty"`
}

// Check responses are a findings.Report — byte-for-byte the structure
// `lsrc -verify -json` / `lsrc -lint -json` print.

// ErrorBody is the error detail of a failed request.
type ErrorBody struct {
	// Kind is the taxonomy kind (see Kind).
	Kind string `json:"kind"`
	// Message is the human-readable error.
	Message string `json:"message"`
	// Findings carries structured findings when the failure is a
	// verify-failed (the violated invariants).
	Findings []findings.Finding `json:"findings,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}
