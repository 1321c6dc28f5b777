package srclint

import (
	"strings"
	"testing"

	"repro/internal/findings"
)

// paritySrc is a miniature two-engine VM with every surface the parity
// analyzer cross-checks, in a consistent (clean) state. The violation
// tests below each break exactly one invariant by string surgery.
const paritySrc = `package vmtest

type Op byte
type xcode byte

const (
	OpHalt Op = iota
	OpAdd
	OpJump
)

const (
	xUnknown xcode = iota
	xHalt
	xAdd
	xJump
)

type dcode struct{ x xcode }

func loop(op Op) {
	switch op {
	case OpHalt:
	case OpAdd:
	case OpJump:
	}
}

func decodeOne(op Op) xcode {
	switch op {
	case OpHalt:
		return xHalt
	case OpAdd:
		return xAdd
	case OpJump:
		return xJump
	}
	return xUnknown
}

func runThreaded(d *dcode) {
	switch d.x {
	case xHalt:
	case xAdd:
	case xJump:
	}
}
`

func parityCfg() ParityConfig {
	return ParityConfig{
		OpType:       "Op",
		XType:        "xcode",
		SwitchFunc:   "loop",
		DecodeFunc:   "decodeOne",
		ThreadedFunc: "runThreaded",
		DefaultX:     []string{"xUnknown"},
	}
}

func checkParitySrc(t *testing.T, src string) []findings.Finding {
	t.Helper()
	pkg, err := CheckSource("vmtest", src)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := CheckParity("", pkg, parityCfg())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// mutate replaces old with new exactly once, failing the test if the
// pattern is absent or ambiguous (which would silently test nothing).
func mutate(t *testing.T, src, old, new string) string {
	t.Helper()
	if n := strings.Count(src, old); n != 1 {
		t.Fatalf("mutation pattern occurs %d times, want 1: %q", n, old)
	}
	return strings.Replace(src, old, new, 1)
}

func TestParityClean(t *testing.T) {
	if fs := checkParitySrc(t, paritySrc); len(fs) != 0 {
		t.Fatalf("clean corpus produced findings: %+v", fs)
	}
}

func TestParityViolations(t *testing.T) {
	cases := []struct {
		name     string
		old, new string
		kind     string
		msgHas   string
	}{
		{
			name: "missing-switch-case",
			old:  "\tcase OpJump:\n\t}\n}\n\nfunc decodeOne",
			new:  "\t}\n}\n\nfunc decodeOne",
			kind: "missing-switch-case", msgHas: "OpJump",
		},
		{
			name: "missing-decode-case",
			old:  "\tcase OpJump:\n\t\treturn xJump\n",
			new:  "",
			kind: "missing-decode-case", msgHas: "OpJump",
		},
		{
			name: "missing-threaded-arm",
			old:  "\tcase xJump:\n\t}\n}\n",
			new:  "\t}\n}\n",
			kind: "missing-threaded-arm", msgHas: "xJump",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := checkParitySrc(t, mutate(t, paritySrc, tc.old, tc.new))
			if len(fs) == 0 {
				t.Fatalf("violation not detected")
			}
			found := false
			for _, f := range fs {
				if f.Kind == tc.kind && strings.Contains(f.Msg, tc.msgHas) {
					found = true
				} else if f.Kind != tc.kind {
					t.Errorf("unexpected extra finding %s: %s", f.Kind, f.Msg)
				}
			}
			if !found {
				t.Fatalf("no %s finding mentioning %q in %+v", tc.kind, tc.msgHas, fs)
			}
		})
	}
}
