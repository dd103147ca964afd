package sweep

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/model"
)

func TestResolveCanonicalNames(t *testing.T) {
	cases := []struct{ in, want string }{
		{"aheavy", "aheavy"},
		{"AHEAVY", "aheavy"},
		{"aheavy:0.5", "aheavy:0.5"},
		{"aheavy-fast", "aheavy!mass"},
		{"aheavy-fast:0.9", "aheavy:0.9!mass"},
		{"aheavy!mass", "aheavy!mass"},
		{"AHEAVY!MASS", "aheavy!mass"},
		{"aheavy!mass:0.5", "aheavy:0.5!mass"}, // family-level suffix floats to the end
		{"oneshot!mass", "oneshot!mass"},
		{"greedy!mass", "greedy:2!mass"},
		{"fixed:1!mass", "fixed:1!mass"},
		{"adaptive!mass", "adaptive:2!mass"},
		{"asym", "asym"},
		{"alight", "alight"},
		{"light", "alight"},
		{"oneshot", "oneshot"},
		{"greedy", "greedy:2"},
		{"greedy:3", "greedy:3"},
		{"greedy2", "greedy:2"},
		{"batched", "batched:2"},
		{"batched:2:1024", "batched:2:1024"},
		{"fixed", "fixed:2"},
		{"fixed:1", "fixed:1"},
		{"det", "det"},
		{"deterministic", "det"},
		{"adaptive", "adaptive:2"},
		{"adaptive:5", "adaptive:5"},
		{" greedy:4 ", "greedy:4"},
		{"online:aheavy:0.1", "online:aheavy:0.1:8"},
		{"ONLINE:AHEAVY:0.10", "online:aheavy:0.1:8"},
		{"online:greedy:0.2", "online:greedy:2:0.2:8"},
		{"online:adaptive:4:0.5", "online:adaptive:4:0.5:8"},
		{"online:oneshot:0.25:12", "online:oneshot:0.25:12"},
		{"online:aheavy:0.5:0.1", "online:aheavy:0.5:0.1:8"}, // beta 0.5, churn 0.1
		{"online:aheavy:0:0.2", "online:aheavy:0.2:8"},       // beta 0 is the paper's 2/3
	}
	for _, tc := range cases {
		a, err := Resolve(tc.in)
		if err != nil {
			t.Errorf("Resolve(%q): %v", tc.in, err)
			continue
		}
		if a.Name != tc.want {
			t.Errorf("Resolve(%q).Name = %q, want %q", tc.in, a.Name, tc.want)
		}
	}
}

func TestCanonicalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"greedy2", "greedy:2"},
		{"GREEDY2", "greedy:2"},
		{"light", "alight"},
		{"deterministic", "det"},
		{"greedy:3", "greedy:3"},
		{" AHEAVY ", "aheavy"},
		{"unknown:x", "unknown:x"}, // passthrough; Resolve rejects later
	}
	for _, tc := range cases {
		if got := Canonicalize(tc.in); got != tc.want {
			t.Errorf("Canonicalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestResolveRejectsBadNames(t *testing.T) {
	for _, bad := range []string{
		"", "nope", "greedy:x", "greedy:0", "greedy:2:3",
		"batched:0", "batched:2:0", "batched:2:8:9",
		"fixed:-1", "adaptive:-2", "aheavy:1.5", "aheavy:x",
		"asym:3", "oneshot:1", "det:2", "alight:9",
		// trailing colons (empty parameters) are malformed, not defaults
		"greedy:", "batched:2:", "aheavy:", "fixed:", "adaptive:",
		"asym:", "oneshot:", "det:", "online:aheavy:0.1:",
		// online-specific malformations
		"online", "online:", "online:0.1", "online:aheavy",
		"online:aheavy:1", "online:aheavy:1.5", "online:aheavy:-0.1",
		"online:aheavy:x", "online:nope:0.1", "online:aheavy:0.1:0",
		"online:aheavy:0.1:-3", "online:greedy:0:0.1", "online:asym:0.1",
		// families without a mass-mode implementation, and stray suffixes
		"asym!mass", "det!mass", "alight!mass", "batched:2!mass", "!mass",
		"greedy:0!mass", "fixed:-1!mass", "aheavy:1.5!mass",
	} {
		if _, err := Resolve(bad); err == nil {
			t.Errorf("Resolve(%q) succeeded, want error", bad)
		}
	}
	if _, err := Resolve("zzz"); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown-name error should list known families, got %v", err)
	}
}

// TestRegistryRoundTripProperty is the property-based form of the
// canonicalization contract: any valid spec the generator produces must
// resolve, and its canonical name must resolve back to itself (idempotent
// spelling). Parameters are drawn from quick-check randomness.
func TestRegistryRoundTripProperty(t *testing.T) {
	gen := func(pick uint8, a, b uint8, frac uint16) string {
		beta := fmt.Sprintf("0.%02d", frac%99+1) // (0, 1) two-decimal beta
		churn := fmt.Sprintf("0.%02d", frac%100) // [0, 1) two-decimal churn
		d := int(a%4) + 1
		slack := int(b % 6)
		switch pick % 12 {
		case 0:
			return "aheavy"
		case 1:
			return "aheavy:" + beta
		case 2:
			return fmt.Sprintf("aheavy-fast:%s", beta)
		case 3:
			return fmt.Sprintf("greedy:%d", d)
		case 4:
			return fmt.Sprintf("batched:%d:%d", d, int(b)+1)
		case 5:
			return fmt.Sprintf("fixed:%d", slack)
		case 6:
			return fmt.Sprintf("adaptive:%d", slack)
		case 7:
			return fmt.Sprintf("online:aheavy:%s", churn)
		case 8:
			return fmt.Sprintf("online:greedy:%d:%s", d, churn)
		case 9:
			return fmt.Sprintf("online:adaptive:%d:%s:%d", slack, churn, int(a%8)+1)
		case 10:
			return fmt.Sprintf("online:oneshot:%s", churn)
		default:
			return []string{"asym", "alight", "oneshot", "det"}[int(a)%4]
		}
	}
	err := quick.Check(func(pick, a, b uint8, frac uint16) bool {
		name := gen(pick, a, b, frac)
		alg, err := Resolve(name)
		if err != nil {
			t.Logf("Resolve(%q): %v", name, err)
			return false
		}
		again, err := Resolve(alg.Name)
		if err != nil {
			t.Logf("canonical %q does not resolve: %v", alg.Name, err)
			return false
		}
		if again.Name != alg.Name || again.Family != alg.Family {
			t.Logf("canonical %q re-resolves to %q", alg.Name, again.Name)
			return false
		}
		// Canonicalize must be idempotent and stable under case/space noise.
		noisy := " " + strings.ToUpper(name) + " "
		if Canonicalize(noisy) != Canonicalize(Canonicalize(noisy)) {
			return false
		}
		c, err := Resolve(noisy)
		return err == nil && c.Name == alg.Name
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpecNormalizeCanonicalizes pins spec-level canonicalization: a spec
// written with aliases and default-elided parameters normalizes to
// canonical spellings that re-normalize to themselves (fixed point).
func TestSpecNormalizeCanonicalizes(t *testing.T) {
	s := Spec{
		Algorithms: []string{"greedy2", "light", "ONLINE:GREEDY:0.2", "batched"},
		Ns:         []int{8}, Ratios: []int64{4}, Seeds: 1,
	}
	n1, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"greedy:2", "alight", "online:greedy:2:0.2:8", "batched:2"}
	for i, w := range want {
		if n1.Algorithms[i] != w {
			t.Errorf("Normalize[%d] = %q, want %q", i, n1.Algorithms[i], w)
		}
	}
	n2, err := n1.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n2.Fingerprint() != n1.Fingerprint() {
		t.Error("Normalize is not a fixed point")
	}
}

// TestEveryFamilyRuns executes each registry family on a small instance
// and checks the allocation invariants — the registry equivalent of the
// public API surface test.
func TestEveryFamilyRuns(t *testing.T) {
	heavy := model.Problem{M: 2000, N: 50}
	light := model.Problem{M: 50, N: 50} // alight is the lightly loaded substrate
	for _, name := range []string{
		"aheavy", "aheavy-fast", "aheavy:0.5", "asym", "alight",
		"oneshot", "greedy:2", "batched:2:500", "fixed:2", "det", "adaptive:4",
		"online:aheavy:0.2", "online:greedy:2:0.3:4",
		"aheavy!mass", "aheavy:0.5!mass", "oneshot!mass", "greedy:2!mass",
		"fixed:2!mass", "adaptive:4!mass",
		"online:aheavy!mass:0.2", "online:adaptive!mass:0.3:4",
	} {
		p := heavy
		if name == "alight" {
			p = light
		}
		res, err := Run(name, p, Options{Seed: 7})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := res.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRegistryMatchesDirectCall pins the registry's dispatch to the
// underlying packages: same seed, same result.
func TestRegistryMatchesDirectCall(t *testing.T) {
	p := model.Problem{M: 5000, N: 64}
	direct, err := baseline.Greedy(p, 2, baseline.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	viaReg, err := Run("greedy2", p, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Loads {
		if direct.Loads[i] != viaReg.Loads[i] {
			t.Fatalf("bin %d: registry %d != direct %d", i, viaReg.Loads[i], direct.Loads[i])
		}
	}
}

func TestMustResolvePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustResolve of unknown name did not panic")
		}
	}()
	MustResolve("not-an-algorithm")
}

func TestNamesAndDescribe(t *testing.T) {
	names := Names()
	if len(names) != len(families) {
		t.Fatalf("Names() returned %d entries, registry has %d", len(names), len(families))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %q before %q", names[i-1], names[i])
		}
	}
	if len(Describe()) != len(families) {
		t.Fatal("Describe() incomplete")
	}
}
