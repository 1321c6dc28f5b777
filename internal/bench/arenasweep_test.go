package bench

import "testing"

// TestArenaSweep is the two-sided arena gate: every benchmark's code
// analyzes clean under the paper configuration, and every seeded
// violation in the corpus is still caught.
func TestArenaSweep(t *testing.T) {
	if table, err := ArenaSweep(All()); err != nil {
		t.Fatalf("%v\n%s", err, table)
	}
}
