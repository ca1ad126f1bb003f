package vetcheck

import (
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// The gate's acceptance criterion: the repository itself is clean.
// Every invariant the nine checks encode holds module-wide, and every
// deliberate exception carries a reasoned //xqvet:ignore — so this
// test failing means either a real violation crept in or an ignore
// went stale. Both demand action, not a looser gate.
func TestRepositoryIsClean(t *testing.T) {
	findings, err := Run("../..", nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestNoStalePragmas is the self-application half of the pragma sweep:
// with every check enabled, each //xqvet:ignore in the module must
// still consume a finding. A stale, reasonless, or unknown-check
// pragma surfaces as a "pragma" finding, which this test pins to zero
// independently of the blanket cleanliness assertion above.
func TestNoStalePragmas(t *testing.T) {
	mod, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunModule(mod, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Check == "pragma" {
			t.Errorf("pragma defect: %s", f)
		}
	}
	// Every pragma that exists must name an enabled check — a sweep
	// that left annotations for deleted checks would rot silently.
	for _, pr := range collectPragmas(mod) {
		if !validCheck(pr.check) {
			t.Errorf("%s: pragma names unregistered check %q", pr.pos, pr.check)
		}
		if strings.TrimSpace(pr.reason) == "" {
			t.Errorf("%s: pragma for %q has no reason", pr.pos, pr.check)
		}
	}
}

// TestFrozenMutatorsAreDeclared: every faMutators name is declared as a
// method by some type of a FrozenHomePackages package, so the list
// cannot go on naming a mutator that was deleted.
func TestFrozenMutatorsAreDeclared(t *testing.T) {
	mod, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	homes := DefaultConfig().FrozenHomePackages
	declared := make(map[string]bool)
	for _, pkg := range mod.Pkgs {
		if !homes[pkg.Rel] {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					declared[fd.Name.Name] = true
				}
			}
		}
	}
	var names []string
	for name := range faMutators {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !declared[name] {
			t.Errorf("faMutators names %s, which no type in a FrozenHomePackages package declares as a method", name)
		}
	}
}
