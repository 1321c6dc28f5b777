// Package codegen is the register allocator and code generator: the
// two-pass algorithm of §3 driving the core save/restore/shuffle
// machinery over the IR and emitting VM instructions.
//
// Pass 1 (analyze.go) walks each procedure bottom-up computing liveness,
// the S_t/S_f save sets, the "possibly referenced before the next call"
// restore sets, and a shuffle plan per call site; it records save
// placements as annotations on the IR. Pass 2 (emit.go) walks forward
// emitting code, eliminating saves already performed by an enclosing
// save region and inserting restores immediately after calls.
package codegen

import (
	"fmt"
	"strings"

	"repro/internal/vm"
)

// SaveStrategy selects the register save placement of §4's comparison.
type SaveStrategy int

const (
	// SaveLazy is the paper's strategy: save as soon as a call is
	// inevitable (revised S_t/S_f algorithm).
	SaveLazy SaveStrategy = iota
	// SaveEarly saves at the definition point (procedure entry for
	// parameters) every register that is live across any call anywhere
	// in the procedure — the natural callee-save-style extreme.
	SaveEarly
	// SaveLate saves the live registers immediately before each call —
	// the natural caller-save extreme, with redundant saves on paths
	// with multiple calls.
	SaveLate
	// SaveSimple places saves with the simple one-set algorithm of
	// §2.1.1 (S[E] instead of S_t/S_f). It is sound — every call's
	// requirement is still covered at its own branch — but "too lazy"
	// around short-circuit boolean tests, pushing saves into branches
	// where they execute repeatedly (the §2.1.2 deficiency).
	SaveSimple
)

// saveNames, restoreNames and shuffleNames are the options' names, as
// String prints them and the Parse functions read them.
var (
	saveNames    = []string{SaveLazy: "lazy", SaveEarly: "early", SaveLate: "late", SaveSimple: "simple"}
	restoreNames = []string{RestoreEager: "eager", RestoreLazy: "lazy"}
	shuffleNames = []string{ShuffleGreedy: "greedy", ShuffleNaive: "naive"}
)

func (s SaveStrategy) String() string { return optionName(saveNames, int(s), "SaveStrategy") }

// ParseSaveStrategy reads a name SaveStrategy.String prints.
func ParseSaveStrategy(name string) (SaveStrategy, error) {
	i, err := parseOption(saveNames, name, "save strategy")
	return SaveStrategy(i), err
}

// RestorePolicy selects §2.2's restore placement.
type RestorePolicy int

const (
	// RestoreEager restores immediately after each call every register
	// possibly referenced before the next call (the paper's choice).
	RestoreEager RestorePolicy = iota
	// RestoreLazy restores a register at its first use after a call
	// (the maximally lazy baseline).
	RestoreLazy
)

func (r RestorePolicy) String() string { return optionName(restoreNames, int(r), "RestorePolicy") }

// ParseRestorePolicy reads a name RestorePolicy.String prints.
func ParseRestorePolicy(name string) (RestorePolicy, error) {
	i, err := parseOption(restoreNames, name, "restore policy")
	return RestorePolicy(i), err
}

// ShuffleMethod selects the argument-shuffling algorithm of §2.3.
type ShuffleMethod int

const (
	// ShuffleGreedy is the paper's greedy algorithm.
	ShuffleGreedy ShuffleMethod = 0
	// ShuffleNaive evaluates arguments left to right (the pre-greedy
	// compiler of §4, whose performance "decreased after two argument
	// registers"). It stays 2 because cache keys hash the number: 1 was
	// an exhaustive-search shuffler, since deleted, whose entries an
	// older build may have left in a shared store.
	ShuffleNaive ShuffleMethod = 2
)

func (s ShuffleMethod) String() string { return optionName(shuffleNames, int(s), "ShuffleMethod") }

// ParseShuffleMethod reads a name ShuffleMethod.String prints.
func ParseShuffleMethod(name string) (ShuffleMethod, error) {
	i, err := parseOption(shuffleNames, name, "shuffle method")
	return ShuffleMethod(i), err
}

// optionName is names[i], or Type(i) for a value with no name; an
// empty entry is a value with no name.
func optionName(names []string, i int, typ string) string {
	if i >= 0 && i < len(names) && names[i] != "" {
		return names[i]
	}
	return fmt.Sprintf("%s(%d)", typ, i)
}

// parseOption is the index of name in names, skipping empty entries.
func parseOption(names []string, name, what string) (int, error) {
	var known []string
	for i, n := range names {
		if n == "" {
			continue
		}
		if n == name {
			return i, nil
		}
		known = append(known, n)
	}
	want := strings.Join(known[:len(known)-1], ", ") + " or " + known[len(known)-1]
	return 0, fmt.Errorf("unknown %s %q (want %s)", what, name, want)
}

// Options configures a compilation.
type Options struct {
	Config   vm.Config
	Saves    SaveStrategy
	Restores RestorePolicy
	Shuffle  ShuffleMethod
	// PredictBranches enables the §6 static branch prediction extension:
	// paths without calls are predicted taken.
	PredictBranches bool
	// ComputeShuffleStats additionally computes the fewest temporaries
	// at every call site (core.OptimalSimpleTemps) to measure the
	// selected shuffler against the optimum (§3.1); it does not affect
	// generated code.
	ComputeShuffleStats bool
	// CalleeSave enables the §2.4 callee-save discipline: variables live
	// across calls are shadowed in callee-save registers
	// (Config.CalleeSaveRegs must be positive); the save of the
	// register's previous contents and the move into it are placed by
	// the selected save strategy, and the previous contents are restored
	// at procedure exits.
	CalleeSave bool
	// Verify runs the internal/verify translation validator over the
	// generated code as a compiler post-pass: a compilation whose output
	// breaks the save/restore/shuffle invariants fails instead of
	// producing code that misbehaves at run time.
	Verify bool
	// Lint runs the internal/analysis optimality analyzer over the
	// generated code as a compiler post-pass. Unlike Verify it never
	// fails the compilation: the waste report (redundant saves, dead
	// restores, suboptimal shuffles, static cost estimate) is attached
	// to the compilation result for the caller to inspect or gate on.
	Lint bool
}

// DefaultOptions is the paper's configuration: lazy saves, eager
// restores, greedy shuffling, six argument and six user registers.
func DefaultOptions() Options {
	return Options{Config: vm.DefaultConfig()}
}

// Stats reports static compilation measurements (§3.1, §4).
type Stats struct {
	// CallSites is the number of non-tail plus tail call sites with at
	// least one register argument to shuffle.
	CallSites int
	// CyclicCallSites counts call sites whose simple-argument dependency
	// graph had a cycle (§3.1 reports 7%).
	CyclicCallSites int
	// ShuffleTemps is the total number of simple-argument temporaries
	// the selected shuffler introduced.
	ShuffleTemps int
	// OptimalTemps is the sum of the per-site minimum (only filled when
	// ComputeShuffleStats is set).
	OptimalTemps int
	// SitesOptimal / SitesSuboptimal break down greedy-vs-optimal per
	// call site (only with ComputeShuffleStats).
	SitesOptimal    int
	SitesSuboptimal int
	// ExtraTempsWorst is the largest per-site excess over optimal.
	ExtraTempsWorst int
	// SaveSites / RestoreSites count emitted save and restore
	// instructions (static).
	SaveSites    int
	RestoreSites int
	// DefensiveRestores counts restores the emitter inserted at a use
	// even though the eager policy should have covered it; nonzero
	// values indicate an analysis imprecision (tests assert zero).
	DefensiveRestores int
	// Procs is the number of procedures compiled; SyntacticLeaves and
	// CallInevitable count their static classification.
	Procs           int
	SyntacticLeaves int
	CallInevitable  int
	// Instructions is the total code length.
	Instructions int
}
