package srclint

// The alloc-baseline analyzer: drives the Go compiler's escape analysis
// (go build -gcflags=-m) over the VM package and diffs the reported
// heap-escape sites in the hot-path files against a committed,
// annotated baseline (ALLOC_BASELINE.json). Allocation was the VM's
// dominant wall-time cost until the tagged-value and arena overhaul
// (DESIGN.md §12, §14), so any *new* escape site in the dispatch hot
// path is a perf regression that must be either eliminated or
// consciously added to the baseline.
//
// Sites are keyed on (file, diagnostic text) with an occurrence count,
// never on line numbers, so unrelated edits that move code do not churn
// the baseline; only adding or removing an escaping expression does.
// Escape diagnostics are a property of one compiler version's inliner
// and escape analysis, so the baseline records the toolchain and the
// analyzer refuses to diff across a different go MAJOR.MINOR rather
// than report version noise as regressions.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"path"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/findings"
)

// AllocBaselineSchema identifies the ALLOC_BASELINE.json format.
const AllocBaselineSchema = "lsr/alloc-baseline/v1"

// AllocSite is one distinct escape diagnostic: a (file, message) key
// with the number of source locations it fires at.
type AllocSite struct {
	// File is the diagnosed file's path relative to the module root.
	File string `json:"file"`
	// Message is the compiler's diagnostic with the position prefix
	// stripped ("&RuntimeError{...} escapes to heap").
	Message string `json:"message"`
	// Count is how many distinct positions report this message in File.
	Count int `json:"count"`
	// Note justifies why the site is acceptable (required for files
	// outside the dispatch loop, where escapes need an explicit reason).
	Note string `json:"note,omitempty"`

	// line is the first position's line, carried to findings (not part
	// of the baseline key and not serialized).
	line int
}

// AllocBaseline is the committed ALLOC_BASELINE.json payload.
type AllocBaseline struct {
	Schema string `json:"schema"`
	// Package is the go build pattern measured.
	Package string `json:"package"`
	// Files lists the hot-path files in scope (base names).
	Files []string `json:"files"`
	// GoVersion is the toolchain the sites were recorded with.
	GoVersion string `json:"go_version"`
	// Sites are the accepted escapes, sorted by (file, message).
	Sites []AllocSite `json:"sites"`
}

// AllocConfig scopes the alloc-baseline analyzer.
type AllocConfig struct {
	// Package is the build pattern whose escape diagnostics are read.
	Package string
	// Files are the hot-path file base names in scope.
	Files []string
	// RequireNote lists the files whose baseline entries must carry a
	// justifying note: files outside the dispatch loop proper, where
	// an escape is not self-evidently "the known boxing bottleneck".
	RequireNote []string
}

// DefaultAllocConfig scopes the analyzer to the VM hot path: the
// threaded dispatch loop (exec.go) plus the machine state and value
// representation files, where every escape must carry an explicit
// justification.
func DefaultAllocConfig() AllocConfig {
	return AllocConfig{
		Package:     "./internal/vm",
		Files:       []string{"exec.go", "machine.go", "value.go"},
		RequireNote: []string{"machine.go", "value.go"},
	}
}

var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.+)$`)

// MeasureEscapes compiles cfg.Package with -gcflags=-m under root and
// returns the in-scope escape sites. The go tool replays compiler
// diagnostics from the build cache, so repeated runs are cheap.
func MeasureEscapes(root string, cfg AllocConfig) ([]AllocSite, string, error) {
	version, err := goVersion(root)
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command("go", "build", "-gcflags=-m", cfg.Package)
	cmd.Dir = root
	var errb bytes.Buffer
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, "", fmt.Errorf("srclint: go build -gcflags=-m %s: %v\n%s", cfg.Package, err, errb.String())
	}
	return ParseEscapes(errb.String(), cfg.Files), version, nil
}

// ParseEscapes extracts the escape sites from -gcflags=-m output,
// keeping only "escapes to heap" / "moved to heap" diagnostics in the
// given files (matched by base name). Exported so tests can feed
// captured compiler output instead of shelling out.
func ParseEscapes(output string, files []string) []AllocSite {
	inScope := map[string]bool{}
	for _, f := range files {
		inScope[f] = true
	}
	type key struct{ file, msg string }
	counts := map[key]*AllocSite{}
	for _, line := range strings.Split(output, "\n") {
		m := escapeLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[3]
		if !strings.HasSuffix(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		file := path.Clean(strings.ReplaceAll(m[1], "\\", "/"))
		if !inScope[path.Base(file)] {
			continue
		}
		k := key{file, msg}
		if s := counts[k]; s != nil {
			s.Count++
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		counts[k] = &AllocSite{File: file, Message: msg, Count: 1, line: ln}
	}
	sites := make([]AllocSite, 0, len(counts))
	for _, s := range counts {
		sites = append(sites, *s)
	}
	sortSites(sites)
	return sites
}

func sortSites(sites []AllocSite) {
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].File != sites[j].File {
			return sites[i].File < sites[j].File
		}
		return sites[i].Message < sites[j].Message
	})
}

// DiffAlloc gates current escape sites against the baseline. It
// returns findings for every new site, every grown site, and every
// baseline entry that lacks its required justification; stale baseline
// entries (recorded but no longer reported) come back as warnings, not
// findings, so an improvement never fails the gate — it just asks for
// a baseline refresh.
func DiffAlloc(base *AllocBaseline, current []AllocSite, goVersion string, cfg AllocConfig) ([]findings.Finding, []string, error) {
	if base.Schema != AllocBaselineSchema {
		return nil, nil, fmt.Errorf("srclint: baseline schema %q, want %q", base.Schema, AllocBaselineSchema)
	}
	if bv, cv := majorMinor(base.GoVersion), majorMinor(goVersion); bv != cv {
		return nil, nil, fmt.Errorf(
			"srclint: baseline recorded with %s but current toolchain is %s; escape diagnostics are toolchain-specific — run with %s or regenerate the baseline (lsrvet -write)",
			base.GoVersion, goVersion, bv)
	}
	requireNote := map[string]bool{}
	for _, f := range cfg.RequireNote {
		requireNote[f] = true
	}
	type key struct{ file, msg string }
	baseBy := map[key]AllocSite{}
	var fs []findings.Finding
	for _, s := range base.Sites {
		baseBy[key{s.File, s.Message}] = s
		if requireNote[path.Base(s.File)] && s.Note == "" {
			fs = append(fs, allocFinding("unjustified-escape", s,
				fmt.Sprintf("baseline escape in %s has no justifying note: %s", s.File, s.Message)))
		}
	}
	seen := map[key]bool{}
	for _, s := range current {
		k := key{s.File, s.Message}
		seen[k] = true
		b, ok := baseBy[k]
		switch {
		case !ok:
			fs = append(fs, allocFinding("new-heap-escape", s,
				fmt.Sprintf("new heap-escape site in hot path: %s: %s (eliminate it or add it to %s with a note)",
					s.File, s.Message, "ALLOC_BASELINE.json")))
		case s.Count > b.Count:
			fs = append(fs, allocFinding("heap-escape-growth", s,
				fmt.Sprintf("escape %q in %s grew from %d to %d occurrences", s.Message, s.File, b.Count, s.Count)))
		}
	}
	var stale []string
	for _, s := range base.Sites {
		if !seen[key{s.File, s.Message}] {
			stale = append(stale, fmt.Sprintf("%s: %s (baseline count %d, now gone — refresh with lsrvet -write)", s.File, s.Message, s.Count))
		}
	}
	sort.Strings(stale)
	return fs, stale, nil
}

func allocFinding(kind string, s AllocSite, msg string) findings.Finding {
	return findings.Finding{
		Tool: "srclint", Kind: kind,
		File: s.File, Line: s.line,
		PC: -1, Reg: -1, Slot: -1, CallPC: -1,
		Msg: msg,
	}
}

// NewBaseline builds a baseline from measured sites, carrying over the
// notes of an old baseline (matched by file and message) so -write
// refreshes counts without losing justifications.
func NewBaseline(cfg AllocConfig, goVersion string, sites []AllocSite, old *AllocBaseline) *AllocBaseline {
	type key struct{ file, msg string }
	notes := map[key]string{}
	if old != nil {
		for _, s := range old.Sites {
			if s.Note != "" {
				notes[key{s.File, s.Message}] = s.Note
			}
		}
	}
	out := &AllocBaseline{
		Schema:    AllocBaselineSchema,
		Package:   cfg.Package,
		Files:     cfg.Files,
		GoVersion: goVersion,
		Sites:     append([]AllocSite(nil), sites...),
	}
	for i := range out.Sites {
		out.Sites[i].Note = notes[key{out.Sites[i].File, out.Sites[i].Message}]
		out.Sites[i].line = 0
	}
	sortSites(out.Sites)
	return out
}

// ReadBaseline parses an ALLOC_BASELINE.json payload.
func ReadBaseline(data []byte) (*AllocBaseline, error) {
	var b AllocBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("srclint: parse baseline: %v", err)
	}
	return &b, nil
}

// WriteJSON renders the baseline as indented JSON with a trailing
// newline, the exact bytes committed as ALLOC_BASELINE.json.
func (b *AllocBaseline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// goVersion reports the toolchain `go build` under root will use.
func goVersion(root string) (string, error) {
	cmd := exec.Command("go", "env", "GOVERSION")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("srclint: go env GOVERSION: %v", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// majorMinor reduces "go1.24.0" to "go1.24".
func majorMinor(v string) string {
	parts := strings.SplitN(v, ".", 3)
	if len(parts) < 2 {
		return v
	}
	return parts[0] + "." + parts[1]
}
