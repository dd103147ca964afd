package main_test

import (
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

func TestSmoke(t *testing.T) {
	bin := cmdtest.Build(t, "repro/cmd/pba-run")

	out := cmdtest.MustRun(t, bin, "-alg", "oneshot", "-m", "200", "-n", "16", "-seed", "3")
	for _, want := range []string{"algorithm      oneshot", "instance       m=200 n=16", "max load", "rounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// The online registry family must run through the single-run CLI too.
	out = cmdtest.MustRun(t, bin, "-alg", "online:greedy:2:0.3", "-m", "400", "-n", "16")
	if !strings.Contains(out, "algorithm      online:greedy:2:0.3") {
		t.Errorf("online alg output unexpected:\n%s", out)
	}

	// Bad flags must exit nonzero, not succeed silently.
	if _, _, code := cmdtest.Run(t, bin, "-alg", "no-such-alg", "-m", "10", "-n", "4"); code == 0 {
		t.Error("unknown algorithm exited 0")
	}
	// Parameters ride in the registry name (greedy:3); there is no -d.
	if _, _, code := cmdtest.Run(t, bin, "-alg", "greedy", "-d", "3", "-m", "10", "-n", "4"); code == 0 {
		t.Error("-d exited 0")
	}
}
