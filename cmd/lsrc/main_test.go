package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs lsrc itself when LSRC_RUN_MAIN is set, so a test can
// check the exit status of a real invocation by re-running its own
// binary with lsrc's flags.
func TestMain(m *testing.M) {
	if os.Getenv("LSRC_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lsrc runs the command with args and returns its combined output and
// exit status.
func lsrc(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LSRC_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("lsrc %v: %v", args, err)
	return "", 0
}

// TestShuffleFlag: -shuffle takes greedy or naive; any other name,
// including that of the deleted exhaustive shuffler, is a usage error.
func TestShuffleFlag(t *testing.T) {
	for _, method := range []string{"greedy", "naive"} {
		if out, code := lsrc(t, "-shuffle", method, "-e", "(+ 1 2)"); code != 0 || out != "3\n" {
			t.Errorf("-shuffle %s: exit %d, output %q; want 0, \"3\\n\"", method, code, out)
		}
	}
	out, code := lsrc(t, "-shuffle", "optimal", "-e", "(+ 1 2)")
	if want := `unknown shuffle method "optimal" (want greedy or naive)`; code != 2 || !strings.Contains(out, want) {
		t.Errorf("-shuffle optimal: exit %d, output %q; want 2 and %q", code, out, want)
	}
}
