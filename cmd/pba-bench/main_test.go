package main_test

import (
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

func TestSmoke(t *testing.T) {
	bin := cmdtest.Build(t, "repro/cmd/pba-bench")

	out := cmdtest.MustRun(t, bin, "-e", "E1", "-quick", "-seeds", "2")
	if !strings.Contains(out, "E1") {
		t.Errorf("experiment table missing:\n%s", out)
	}

	if _, _, code := cmdtest.Run(t, bin, "-e", "E999"); code == 0 {
		t.Error("unknown experiment exited 0")
	}
	// -mode names an engine; anything else fails before a table runs.
	if _, _, code := cmdtest.Run(t, bin, "-e", "E5", "-quick", "-seeds", "1", "-mode", "count"); code == 0 {
		t.Error("bad -mode exited 0")
	}

	// The load driver without a reachable server must fail loudly. Its
	// positive path is covered by the pba-serve smoke test.
	if _, _, code := cmdtest.Run(t, bin, "-serve", "http://127.0.0.1:1", "-batches", "1", "-batch", "1"); code == 0 {
		t.Error("unreachable -serve exited 0")
	}
}
