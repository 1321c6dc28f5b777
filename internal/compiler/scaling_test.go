package compiler_test

// The linear-scaling gate. The paper's allocator visits each node at
// most twice (§3.1), so the path from source text to a verified, linted
// program should grow linearly with program size. For each generated
// program shape this test runs every public stage of the checked
// compile at size n and at 4n and fails when a stage grows like n²
// instead of n: a linear stage reads about 4× and a quadratic one about
// 16×. Allocated bytes are compared on every stage, since they are
// deterministic; wall time only where the 4n run is long enough to
// time.

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/sexp"
	"repro/internal/verify"
	"repro/internal/vm"
)

const (
	// scaleBytesRatio and scaleTimeRatio bound a stage's growth from n to
	// 4n: between the linear 4× and the quadratic 16×, with room for
	// map growth and cache effects.
	scaleBytesRatio = 6.0
	scaleTimeRatio  = 8.0
	// scaleTimeFloor is the shortest 4n time whose ratio is trusted.
	scaleTimeFloor = 2 * time.Millisecond
	// scaleRounds rounds each take the minimum of scaleSamples runs at
	// each size.
	scaleRounds  = 2
	scaleSamples = 5
)

// stageCost is the cheapest of several runs of one stage.
type stageCost struct {
	wall  time.Duration
	bytes uint64
}

// scaleRound is one round's measurement of every stage at n and at 4n.
type scaleRound struct{ small, large []stageCost }

// measureScaling measures the stages at the small and the large size in
// scaleRounds rounds, each a block of runs at the small size followed
// by a block at the large one. A burst of load from other processes
// during one block skews that round's ratios only, and scaleFault
// needs every round to agree before it blames a stage's time. The
// collector is paused while the stages run and the heap is collected
// before each run, so neither a collection nor the previous run's
// garbage lands inside a timed stage.
func measureScaling(small, large []func() error) ([]scaleRound, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rounds := make([]scaleRound, scaleRounds)
	for r := range rounds {
		var err error
		if rounds[r].small, err = measureBlock(small); err != nil {
			return nil, err
		}
		if rounds[r].large, err = measureBlock(large); err != nil {
			return nil, err
		}
	}
	return rounds, nil
}

// measureBlock runs the stages scaleSamples times, in order, and
// returns each stage's minimum wall time and allocated bytes.
func measureBlock(stages []func() error) ([]stageCost, error) {
	costs := make([]stageCost, len(stages))
	for i := range costs {
		costs[i] = stageCost{wall: math.MaxInt64, bytes: math.MaxUint64}
	}
	var m0, m1 runtime.MemStats
	for k := 0; k < scaleSamples; k++ {
		runtime.GC()
		for i, stage := range stages {
			runtime.ReadMemStats(&m0)
			start := time.Now()
			err := stage()
			wall := time.Since(start)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, err
			}
			costs[i].wall = min(costs[i].wall, wall)
			costs[i].bytes = min(costs[i].bytes, m1.TotalAlloc-m0.TotalAlloc)
		}
	}
	return costs, nil
}

// scaleFault explains why stage i's growth from n to 4n is not linear,
// or returns "" when it is. Bytes are deterministic, so one round
// decides; time must exceed its bound in every round.
func scaleFault(rounds []scaleRound, i int) string {
	var faults []string
	small, large := rounds[0].small[i], rounds[0].large[i]
	if r := float64(large.bytes) / math.Max(float64(small.bytes), 1); r > scaleBytesRatio {
		faults = append(faults, fmt.Sprintf("bytes %.1f× (%d → %d)", r, small.bytes, large.bytes))
	}
	if best := mildestTime(rounds, i); best.large[i].wall >= scaleTimeFloor {
		if r := timeRatio(best, i); r > scaleTimeRatio {
			faults = append(faults, fmt.Sprintf("time %.1f× (%v → %v)", r, best.small[i].wall, best.large[i].wall))
		}
	}
	return strings.Join(faults, ", ")
}

func timeRatio(round scaleRound, i int) float64 {
	return float64(round.large[i].wall) / float64(round.small[i].wall)
}

// mildestTime returns the round in which stage i's time grew least,
// preferring rounds whose 4n time is below the trusted floor.
func mildestTime(rounds []scaleRound, i int) scaleRound {
	best := rounds[0]
	for _, r := range rounds[1:] {
		switch {
		case r.large[i].wall < scaleTimeFloor && best.large[i].wall >= scaleTimeFloor:
			best = r
		case (r.large[i].wall < scaleTimeFloor) == (best.large[i].wall < scaleTimeFloor) && timeRatio(r, i) < timeRatio(best, i):
			best = r
		}
	}
	return best
}

// checkedCompileStages is the checked compile (lsrc -verify -lint) as
// its public calls in sequence, without the prelude so that each shape
// alone sets the size.
var checkedCompileStages = []string{
	"sexp.ReadAll", "ast.ParseProgram", "passes.AssignConvert", "passes.ClosureConvert",
	"codegen.Compile", "verify.Check", "analysis.Analyze",
}

func checkedCompile(src string) []func() error {
	var (
		forms []sexp.Datum
		prog  *ast.Program
		irp   *ir.Program
		code  *vm.Program
	)
	return []func() error{
		func() (err error) { forms, err = sexp.ReadAll(src); return err },
		func() (err error) { prog, err = ast.ParseProgram(forms); return err },
		func() error { prog = passes.AssignConvert(prog); return nil },
		func() (err error) { irp, err = passes.ClosureConvert(prog); return err },
		func() (err error) { code, _, err = codegen.Compile(irp, codegen.DefaultOptions()); return err },
		func() error { return verify.Check(code) },
		func() error {
			if analysis.Analyze(code) == nil {
				return fmt.Errorf("analysis returned no report")
			}
			return nil
		},
	}
}

// scaleShape is one way a program grows, generated at size n.
type scaleShape struct {
	name string
	n    int // the small rung; the large one is 4n
	gen  func(n int) string
}

// scaleShapes are compile-scale's five shapes (depth, sequence length,
// arity, binding depth, clause count) plus three that cross them: values
// live across many calls, a binding chain whose inits branch, and many
// small procedures each with a call shuffle. The rungs put the slowest
// linear stage at a few milliseconds at 4n.
var scaleShapes = []scaleShape{
	{"nest", 512, genNest},
	{"begin", 512, genBegin},
	{"wide", 256, genWide},
	{"let", 256, genLet},
	{"cond", 256, genCond},
	{"calls", 256, genCalls},
	{"letif", 128, genLetIf},
	{"procs", 512, genProcs},
}

// genNest is deep nesting: (+ 1 (+ 2 ... (+ n 0))).
func genNest(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "(+ %d ", i%10)
	}
	b.WriteString("0" + strings.Repeat(")", n))
	return b.String()
}

// genBegin is one procedure body of n global updates.
func genBegin(n int) string {
	var b strings.Builder
	b.WriteString("(define acc 0)\n(define (run)\n (begin\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "  (set! acc (+ acc %d))\n", i%10)
	}
	b.WriteString(" )\n acc)\n(run)\n")
	return b.String()
}

// genWide passes n parameters on to a callee rotated by one, which sums
// them over a balanced tree.
func genWide(n int) string {
	params := make([]string, n)
	terms := make([]string, n)
	args := make([]string, n)
	for i := range params {
		params[i] = "a" + strconv.Itoa(i+1)
		terms[i] = fmt.Sprintf("(* %d %s)", i+1, params[i])
		args[i] = strconv.Itoa(i % 10)
	}
	rotated := append(append([]string{}, params[1:]...), params[0])
	return fmt.Sprintf("(define (sink %s)\n %s)\n(define (rot %s)\n (sink %s))\n(rot %s)\n",
		strings.Join(params, " "), balancedSum(terms),
		strings.Join(params, " "), strings.Join(rotated, " "), strings.Join(args, " "))
}

func balancedSum(terms []string) string {
	if len(terms) == 1 {
		return terms[0]
	}
	mid := len(terms) / 2
	return "(+ " + balancedSum(terms[:mid]) + " " + balancedSum(terms[mid:]) + ")"
}

// genLet is a let chain n bindings deep: x_i = x_{i-1} + c_i.
func genLet(n int) string {
	var b strings.Builder
	b.WriteString("(define (chain)\n(let ((x1 1))\n")
	for i := 2; i <= n; i++ {
		fmt.Fprintf(&b, "(let ((x%d (+ x%d %d)))\n", i, i-1, i%10)
	}
	fmt.Fprintf(&b, "x%d%s)\n(chain)\n", n, strings.Repeat(")", n))
	return b.String()
}

// genCond is a cond chain of n clauses on distinct keys.
func genCond(n int) string {
	var b strings.Builder
	b.WriteString("(define (pick x)\n (cond\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "  ((= x %d) %d)\n", 10*i, i%10)
	}
	fmt.Fprintf(&b, "  (else 0)))\n(+ (pick %d) (pick -1))\n", 10*n)
	return b.String()
}

// genCalls binds n values, each the result of a non-tail call, so every
// value is live across every later call, then sums them.
func genCalls(n int) string {
	var b strings.Builder
	b.WriteString("(define (id x) x)\n(define (calls)\n")
	terms := make([]string, n)
	for i := 1; i <= n; i++ {
		terms[i-1] = "x" + strconv.Itoa(i)
		fmt.Fprintf(&b, "(let ((x%d (id %d)))\n", i, i%10)
	}
	fmt.Fprintf(&b, "%s%s)\n(calls)\n", balancedSum(terms), strings.Repeat(")", n))
	return b.String()
}

// genLetIf is a let chain whose every init branches on the previous
// binding.
func genLetIf(n int) string {
	var b strings.Builder
	b.WriteString("(define (chain k)\n(let ((x1 k))\n")
	for i := 2; i <= n; i++ {
		fmt.Fprintf(&b, "(let ((x%d (if (< x%d %d) (+ x%d 1) (- x%d 1))))\n", i, i-1, i%10, i-1, i-1)
	}
	fmt.Fprintf(&b, "x%d%s)\n(chain 5)\n", n, strings.Repeat(")", n))
	return b.String()
}

// genProcs is n one-line procedures, each making one call whose
// arguments are shuffled.
func genProcs(n int) string {
	var b strings.Builder
	b.WriteString("(define (g x i) (+ x i))\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "(define (f%d x) (+ 1 (g x %d)))\n", i, i)
	}
	fmt.Fprintf(&b, "(f%d 1)\n", n)
	return b.String()
}

// TestCheckedCompileScalesLinearly is the gate: every stage of the
// checked compile, on every shape, grows linearly from n to 4n.
func TestCheckedCompileScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; skipped with -short")
	}
	for _, sh := range scaleShapes {
		rounds, err := measureScaling(checkedCompile(sh.gen(sh.n)), checkedCompile(sh.gen(4*sh.n)))
		if err != nil {
			t.Fatalf("%s at n=%d or %d: %v", sh.name, sh.n, 4*sh.n, err)
		}
		for i, stage := range checkedCompileStages {
			r := mildestTime(rounds, i)
			t.Logf("%-6s %-22s time %5.1f× (%v → %v)  bytes %5.1f×", sh.name, stage,
				timeRatio(r, i), r.small[i].wall, r.large[i].wall,
				float64(r.large[i].bytes)/math.Max(float64(r.small[i].bytes), 1))
			if fault := scaleFault(rounds, i); fault != "" {
				t.Errorf("%s: %s grows faster than linearly from n=%d to %d: %s", sh.name, stage, sh.n, 4*sh.n, fault)
			}
		}
	}
}

// TestScaleFaultSeparatesLinearFromQuadratic checks the gate's rule on
// synthetic stages: one doing and allocating O(n²), one O(n).
func TestScaleFaultSeparatesLinearFromQuadratic(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; skipped with -short")
	}
	var sink []int
	// work allocates size ints and sweeps them passes times.
	work := func(size, passes int) []func() error {
		return []func() error{func() error {
			sink = make([]int, size)
			for k := 0; k < passes; k++ {
				for i := range sink {
					sink[i] += i ^ k
				}
			}
			return nil
		}}
	}
	fault := func(small, large []func() error) string {
		rounds, err := measureScaling(small, large)
		if err != nil {
			t.Fatal(err)
		}
		return scaleFault(rounds, 0)
	}
	// Quadratic: n² cells at n, 16n² at 4n. Linear: 4× the cells at 4n,
	// kept within a megabyte so that cache misses do not grow the time.
	const n = 300
	if quad := fault(work(n*n, 20), work(16*n*n, 20)); !strings.Contains(quad, "bytes") || !strings.Contains(quad, "time") {
		t.Errorf("an O(n²) stage should fail on bytes and time, got %q", quad)
	}
	if lin := fault(work(30_000, 100), work(120_000, 100)); lin != "" {
		t.Errorf("an O(n) stage should pass, got %q", lin)
	}
}
