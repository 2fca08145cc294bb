package experiment

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/project"
	"repro/internal/protein"
)

// kebabName is the catalog naming convention: lowercase alphanumeric
// segments joined by single dashes.
var kebabName = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*$`)

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) < 24 {
		t.Fatalf("catalog has %d scenarios, want ≥ 24", len(cat))
	}
	seen := make(map[string]bool)
	for _, s := range cat {
		if s.Name == "" || s.Description == "" || s.Mutate == nil {
			t.Fatalf("scenario %+v incomplete", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		if !kebabName.MatchString(s.Name) {
			t.Fatalf("scenario name %q is not kebab-case", s.Name)
		}
		if strings.ContainsAny(s.Name, ", ") {
			t.Fatalf("scenario name %q would break the comma-separated CLI spec", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestCatalogMutatorsPure guards the documented "no captured mutable
// state" contract: applying a scenario's mutator to two independent
// copies of the same base configuration must yield equal configs. A
// mutator leaking state between applications (a captured counter, a
// shared slice it appends to) would make sweep results depend on how
// many times — and on which worker — a scenario has run.
func TestCatalogMutatorsPure(t *testing.T) {
	ds := protein.Generate(8, 7)
	m := costmodel.Synthesize(ds, costmodel.SynthesizeOptions{Seed: 8})
	base := project.DefaultConfig(ds, m)
	base.Seed = 4711
	for _, s := range Catalog() {
		a, b := base, base
		s.Mutate(&a)
		s.Mutate(&b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: mutator is not a pure function of the config:\nfirst:  %+v\nsecond: %+v", s.Name, a, b)
		}
	}
	// The shared referenced state must come through untouched: a mutator
	// editing the dataset or matrix in place (instead of replacing the
	// pointer) would corrupt every other scenario's runs.
	pristineDS := protein.Generate(8, 7)
	pristineM := costmodel.Synthesize(pristineDS, costmodel.SynthesizeOptions{Seed: 8})
	if !reflect.DeepEqual(ds, pristineDS) || !reflect.DeepEqual(m, pristineM) {
		t.Fatal("some mutator modified the shared dataset or cost matrix in place")
	}
}

func TestCatalogMutatorsKeepConfigRunnable(t *testing.T) {
	ds := protein.Generate(8, 7)
	m := costmodel.Synthesize(ds, costmodel.SynthesizeOptions{Seed: 8})
	for _, s := range Catalog() {
		cfg := project.DefaultConfig(ds, m)
		cfg.Seed = 42
		s.Mutate(&cfg)
		if cfg.DS == nil || cfg.M == nil {
			t.Fatalf("%s: mutator dropped dataset or matrix", s.Name)
		}
		if cfg.HHours <= 0 || cfg.MaxWeeks <= 0 {
			t.Fatalf("%s: mutator produced invalid durations: %+v", s.Name, cfg)
		}
		if cfg.Server.Deadline <= 0 || cfg.Server.InitialQuorum < 1 || cfg.Server.SteadyQuorum < 1 {
			t.Fatalf("%s: mutator produced invalid server config: %+v", s.Name, cfg.Server)
		}
	}
}

// TestSelect resolves specs against the campaign catalog.
func TestSelect(t *testing.T) {
	checkSelect(t, Catalog(), "quorum-1, baseline,quorum-1", "quorum-1", "baseline", "share-starvation")
}

// checkSelect resolves specs against list: "all" and "" yield the whole
// list, spec names first and second (and first again) and must resolve to
// them deduplicated in that order, and an unknown name — other, a name of
// the other list, included — is an error that lists this list's names.
func checkSelect(t *testing.T, list []Scenario, spec, first, second, other string) {
	t.Helper()
	all, err := Select(list, "all")
	if err != nil || len(all) != len(list) {
		t.Fatalf("Select(all) = %d scenarios, err %v", len(all), err)
	}
	if def, err := Select(list, ""); err != nil || len(def) != len(list) {
		t.Fatalf("Select(\"\") = %d scenarios, err %v", len(def), err)
	}
	some, err := Select(list, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0].Name != first || some[1].Name != second {
		t.Fatalf("Select dedup/order broken: %v", orderedNames(some))
	}
	for _, unknown := range []string{"no-such-scenario", other} {
		_, err := Select(list, unknown)
		if err == nil || !strings.Contains(err.Error(), first) || !strings.Contains(err.Error(), second) {
			t.Fatalf("Select(%q): error %v, want one listing this list's names", unknown, err)
		}
	}
	if _, err := Select(list, " , "); err == nil {
		t.Fatal("expected error for empty selection")
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup(Catalog(), "baseline"); !ok {
		t.Fatal("baseline missing from catalog")
	}
	if _, ok := Lookup(GridCatalog(), "two-project-equal"); !ok {
		t.Fatal("two-project-equal missing from the co-run catalog")
	}
	if _, ok := Lookup(Catalog(), "nope"); ok {
		t.Fatal("Lookup invented a scenario")
	}
	if _, ok := Lookup(GridCatalog(), "baseline"); ok {
		t.Fatal("Lookup found a campaign scenario in the co-run catalog")
	}
}

// TestScenarioNamesUniqueAcrossLists: both lists share cmd/sweep's default
// checkpoint file, whose lines are keyed by scenario name, so no name may
// be in both.
func TestScenarioNamesUniqueAcrossLists(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range append(Catalog(), GridCatalog()...) {
		if seen[s.Name] {
			t.Fatalf("scenario name %q is in both lists", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := make(map[uint64]string)
	for si := 0; si < 20; si++ {
		for rep := 0; rep < 20; rep++ {
			s := DeriveSeed(12345, si, rep)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between cells %s and (%d,%d)", prev, si, rep)
			}
			seen[s] = fmt.Sprintf("(%d,%d)", si, rep)
		}
	}
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(2, 2, 3) {
		t.Fatal("DeriveSeed ignores base seed")
	}
}
