package main_test

import (
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

func TestSmoke(t *testing.T) {
	bin := cmdtest.Build(t, "repro/cmd/pba-verify")

	// One fast verdict end to end; CI runs every verdict through
	// pba-verify itself, not in the unit-test tier.
	out := cmdtest.MustRun(t, bin, "-checks", "E15")
	if !strings.Contains(out, "PASS E15") || !strings.Contains(out, "all 1 verdicts passed") {
		t.Errorf("unexpected output:\n%s", out)
	}

	// An unknown ID, and one whose experiment computes no verdict.
	for _, id := range []string{"E99", "E14"} {
		if _, _, code := cmdtest.Run(t, bin, "-checks", id); code == 0 {
			t.Errorf("-checks %s exited 0", id)
		}
	}
}
