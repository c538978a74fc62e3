package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fedmigr/internal/analysis"
	"fedmigr/internal/analysis/analyzers"
)

// fixtures maps each analyzer to its fixture package under testdata/src
// and the import path the fixture is loaded under — the path of a real
// package inside the analyzer's zone, so the path gate applies to the
// fixture exactly as it does to production code.
var fixtures = []struct {
	dir        string
	importPath string
	analyzer   *analysis.Analyzer
}{
	{"determinism", "fedmigr/internal/core", analyzers.Determinism},
	{"determinismagg", "fedmigr/internal/agg", analyzers.Determinism},
	{"determinismfleet", "fedmigr/internal/fleet", analyzers.Determinism},
	{"determinismfaults", "fedmigr/internal/faults", analyzers.Determinism},
	{"determinismcluster", "fedmigr/internal/cluster", analyzers.Determinism},
	{"lockcheck", "fedmigr/internal/fednet", analyzers.LockCheck},
	{"errcheck", "fedmigr/internal/fednet", analyzers.ErrCheck},
	{"telemetrynames", "fedmigr/internal/core", analyzers.TelemetryNames},
	{"floatcmp", "fedmigr/internal/tensor", analyzers.FloatCmp},
	{"goroutineleak", "fedmigr/internal/fednet", analyzers.GoroutineLeak},
	{"hotalloc", "fedmigr/internal/tensor", analyzers.HotAlloc},
	{"hotallocnn", "fedmigr/internal/nn", analyzers.HotAlloc},
	{"wireexhaustive", "fedmigr/internal/fednet", analyzers.WireExhaustive},
}

var wantRE = regexp.MustCompile("^want `(.+)`$")

// expectations extracts the `// want `regex“ golden annotations from a
// loaded package, keyed by file:line.
func expectations(t *testing.T, pkg *analysis.Package) map[string]*regexp.Regexp {
	t.Helper()
	out := map[string]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				m := wantRE.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
				}
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				if _, dup := out[key]; dup {
					t.Fatalf("%s: duplicate want annotation", key)
				}
				out[key] = re
			}
		}
	}
	return out
}

// TestGoldenFixtures runs every analyzer against its fixture package and
// requires an exact match between reported diagnostics and the `// want`
// annotations: every annotation must be hit, and no unannotated
// diagnostic may appear. Each fixture must produce at least one finding,
// proving the analyzer fires at all.
func TestGoldenFixtures(t *testing.T) {
	loader := analysis.NewLoader()
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			pkg, err := loader.LoadDir(filepath.Join("testdata", "src", fx.dir), fx.importPath)
			if err != nil {
				t.Fatal(err)
			}
			want := expectations(t, pkg)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no want annotations", fx.dir)
			}
			got := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{fx.analyzer})
			if len(got) == 0 {
				t.Fatalf("analyzer %s produced no findings on its fixture", fx.analyzer.Name)
			}
			matched := map[string]bool{}
			for _, d := range got {
				key := fmt.Sprintf("%s:%d", d.File, d.Line)
				re, ok := want[key]
				if !ok {
					t.Errorf("unexpected diagnostic: %s", d)
					continue
				}
				if !re.MatchString(d.Message) {
					t.Errorf("%s: message %q does not match want /%s/", key, d.Message, re)
				}
				matched[key] = true
			}
			for key, re := range want {
				if !matched[key] {
					t.Errorf("%s: expected diagnostic matching /%s/, got none", key, re)
				}
			}
			for _, d := range got {
				if d.Analyzer != fx.analyzer.Name {
					t.Errorf("diagnostic from wrong analyzer %q: %s", d.Analyzer, d)
				}
			}
		})
	}
}

// TestFixtureSuppressions asserts each fixture's //lint:ignore section
// really is load-bearing: stripping the directives must surface at least
// one extra finding per fixture.
func TestFixtureSuppressions(t *testing.T) {
	loader := analysis.NewLoader()
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			pkg, err := loader.LoadDir(filepath.Join("testdata", "src", fx.dir), fx.importPath)
			if err != nil {
				t.Fatal(err)
			}
			hasIgnore := false
			for _, f := range pkg.Files {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						if strings.HasPrefix(c.Text, "//lint:ignore ") {
							hasIgnore = true
						}
					}
				}
			}
			if !hasIgnore {
				t.Fatalf("fixture %s has no //lint:ignore directive to exercise suppression", fx.dir)
			}
			base := len(analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{fx.analyzer}))
			stripIgnores(pkg)
			unsuppressed := len(analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{fx.analyzer}))
			if unsuppressed <= base {
				t.Fatalf("stripping //lint:ignore changed findings %d -> %d; suppression not exercised", base, unsuppressed)
			}
		})
	}
}

// loadInterproc loads the three-package interprocedural fixture: a zone
// package (under fedmigr/internal/core) calling through two helper
// packages aliased to module-internal paths outside every zone.
func loadInterproc(t *testing.T) []*analysis.Package {
	t.Helper()
	loader := analysis.NewLoader()
	base := filepath.Join("testdata", "src", "interproc")
	loader.Alias("fedmigr/internal/lintfixture/mid", filepath.Join(base, "mid"))
	loader.Alias("fedmigr/internal/lintfixture/leaf", filepath.Join(base, "leaf"))
	var pkgs []*analysis.Package
	for _, p := range []struct{ dir, ip string }{
		{"leaf", "fedmigr/internal/lintfixture/leaf"},
		{"mid", "fedmigr/internal/lintfixture/mid"},
		{"zone", "fedmigr/internal/core"},
	} {
		pkg, err := loader.LoadDir(filepath.Join(base, p.dir), p.ip)
		if err != nil {
			t.Fatal(err)
		}
		for _, te := range pkg.TypeErrors {
			t.Fatalf("fixture %s type error: %v", p.dir, te)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// TestInterprocFixture drives the acceptance scenario: a zone function
// whose impurity is two calls deep across packages is flagged at the
// in-zone call site with the full chain rendered in the diagnostic, and
// nothing is reported in the out-of-zone helpers.
func TestInterprocFixture(t *testing.T) {
	pkgs := loadInterproc(t)
	got := analysis.Run(pkgs, []*analysis.Analyzer{analyzers.Determinism})
	if len(got) != 1 {
		t.Fatalf("want exactly 1 finding, got %d: %v", len(got), got)
	}
	d := got[0]
	want := expectations(t, pkgs[2])
	key := fmt.Sprintf("%s:%d", d.File, d.Line)
	re, ok := want[key]
	if !ok || !re.MatchString(d.Message) {
		t.Fatalf("diagnostic %s does not match fixture want annotations", d)
	}
	if d.Depth != 2 {
		t.Errorf("chain depth = %d, want 2 (two calls between zone and leaf)", d.Depth)
	}
	for _, hop := range []string{"lintfixture/mid.Stamp", "lintfixture/leaf.Clock", "time.Now"} {
		if !strings.Contains(d.Chain, hop) {
			t.Errorf("chain %q missing hop %q", d.Chain, hop)
		}
	}
}

// TestInterprocFixtureFixed proves the flip side of the acceptance
// criterion: with the leaf's wall-clock read replaced by a constant, the
// identical zone code produces no findings.
func TestInterprocFixtureFixed(t *testing.T) {
	dir := t.TempDir()
	fixed := map[string]string{
		"leaf/leaf.go": "package leaf\n\n// Clock is pure in the fixed variant.\nfunc Clock() int64 { return 42 }\n",
	}
	for _, sub := range []string{"zone", "mid"} {
		src, err := os.ReadFile(filepath.Join("testdata", "src", "interproc", sub, mapFixtureFile(sub)))
		if err != nil {
			t.Fatal(err)
		}
		fixed[sub+"/"+mapFixtureFile(sub)] = string(src)
	}
	for rel, src := range fixed {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader := analysis.NewLoader()
	loader.Alias("fedmigr/internal/lintfixture/mid", filepath.Join(dir, "mid"))
	loader.Alias("fedmigr/internal/lintfixture/leaf", filepath.Join(dir, "leaf"))
	var pkgs []*analysis.Package
	for _, p := range []struct{ sub, ip string }{
		{"leaf", "fedmigr/internal/lintfixture/leaf"},
		{"mid", "fedmigr/internal/lintfixture/mid"},
		{"zone", "fedmigr/internal/core"},
	} {
		pkg, err := loader.LoadDir(filepath.Join(dir, p.sub), p.ip)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	if got := analysis.Run(pkgs, []*analysis.Analyzer{analyzers.Determinism}); len(got) != 0 {
		t.Fatalf("fixed helper still yields findings: %v", got)
	}
}

func mapFixtureFile(sub string) string {
	if sub == "zone" {
		return "fixture.go"
	}
	return sub + ".go"
}

// TestInterprocSuppression proves the zone fixture's //lint:ignore on the
// second chain call site is load-bearing.
func TestInterprocSuppression(t *testing.T) {
	pkgs := loadInterproc(t)
	base := len(analysis.Run(pkgs, []*analysis.Analyzer{analyzers.Determinism}))
	stripIgnores(pkgs[2])
	unsuppressed := len(analysis.Run(pkgs, []*analysis.Analyzer{analyzers.Determinism}))
	if unsuppressed != base+1 {
		t.Fatalf("stripping ignores changed findings %d -> %d, want +1", base, unsuppressed)
	}
}

// stripIgnores blanks every //lint:ignore comment in the loaded AST and
// rebuilds the package's directive set, simulating the same fixture with
// no suppressions.
func stripIgnores(pkg *analysis.Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//lint:ignore ") {
					c.Text = "// (stripped)"
				}
			}
		}
	}
	pkg.ReparseIgnores()
}
