package cardpi

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestPublicSurfaceIsDocumented enforces the godoc contract on the packages
// that form the library's public surface: the root cardpi package and
// internal/conformal (the algorithmic core users read when auditing the
// guarantees). Every exported type, function, method, and struct field must
// carry a doc comment; CI fails on new undocumented exports. The content
// convention — state the units (normalised selectivity vs. cardinality/rows)
// and the concurrency contract — is reviewed by humans, but presence is
// enforced here.
func TestPublicSurfaceIsDocumented(t *testing.T) {
	for dir, importPath := range map[string]string{
		".":                  "cardpi",
		"internal/conformal": "cardpi/internal/conformal",
		"internal/registry":  "cardpi/internal/registry",
		"internal/pipeline":  "cardpi/internal/pipeline",
		"internal/recal":     "cardpi/internal/recal",
		"internal/cache":     "cardpi/internal/cache",
		"internal/scenario":  "cardpi/internal/scenario",
		"internal/synth":     "cardpi/internal/synth",
	} {
		missing, err := undocumentedExports(dir, importPath)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, m := range missing {
			t.Errorf("%s: %s is exported but has no doc comment", importPath, m)
		}
	}
}

// TestOperationsDocCoversRegistrySurface keeps OPERATIONS.md and
// OBSERVABILITY.md one-for-one with the registry implementation: every
// /admin endpoint path registered in the serve mux and every
// cardpi_registry_* metric family created in code must appear in both
// documents. Adding an endpoint or metric without documenting it fails CI.
func TestOperationsDocCoversRegistrySurface(t *testing.T) {
	endpoints := sourceMatches(t, regexp.MustCompile(`/admin/[a-z]+`), "cmd/cardpi")
	metrics := sourceMatches(t, regexp.MustCompile(`cardpi_registry_[a-z_]+`), "internal/registry", "cmd/cardpi")
	if len(endpoints) == 0 || len(metrics) == 0 {
		t.Fatalf("surface scan found %d endpoints and %d metric families — the scanner is broken",
			len(endpoints), len(metrics))
	}

	operations := readDoc(t, "OPERATIONS.md")
	observability := readDoc(t, "OBSERVABILITY.md")
	for _, ep := range endpoints {
		if !strings.Contains(operations, ep) {
			t.Errorf("OPERATIONS.md does not document admin endpoint %s", ep)
		}
	}
	for _, m := range metrics {
		if !strings.Contains(operations, m) {
			t.Errorf("OPERATIONS.md does not mention registry metric %s", m)
		}
		if !strings.Contains(observability, m) {
			t.Errorf("OBSERVABILITY.md does not document registry metric %s", m)
		}
	}
}

// TestObservabilityDocCoversSurface does the same for the other metric
// surfaces, one subtest each: every cardpi_<surface>_* metric family named
// in the surface's source directories must appear in OBSERVABILITY.md.
func TestObservabilityDocCoversSurface(t *testing.T) {
	for _, tc := range []struct {
		name string
		re   string
		dirs []string
		what string
	}{
		// The closed-loop recalibration supervisor.
		{"recal", `cardpi_recal_[a-z_]+`, []string{"internal/recal", "cmd/cardpi"}, "recalibration"},
		// The drift and served-coverage monitor (Monitor, Adaptive).
		{"adaptive", `cardpi_adaptive_[a-z_]+`, []string{".", "cmd/cardpi"}, "adaptive monitor"},
		// The estimator synthesis meta-search.
		{"synth", `cardpi_synth_[a-z_]+`, []string{"internal/synth", "cmd/cardpi"}, "synthesis"},
		// The serving-layer interval cache.
		{"cache", `cardpi_cache_[a-z_]+`, []string{"internal/cache", "cmd/cardpi"}, "cache"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			metrics := sourceMatches(t, regexp.MustCompile(tc.re), tc.dirs...)
			if len(metrics) == 0 {
				t.Fatalf("surface scan found no cardpi_%s_* families — the scanner is broken", tc.name)
			}
			observability := readDoc(t, "OBSERVABILITY.md")
			for _, m := range metrics {
				if !strings.Contains(observability, m) {
					t.Errorf("OBSERVABILITY.md does not document %s metric %s", tc.what, m)
				}
			}
		})
	}
}

// TestObservabilityDocMatchesMetricFamilies keeps OBSERVABILITY.md's metric
// tables one-for-one with the code: every cardpi_* family named by a string
// literal in non-test Go (the root package, internal/, cmd/) must have a
// table row, and every table row must name a family some such literal
// creates. Adding, renaming or deleting a family without the matching doc
// change fails CI.
func TestObservabilityDocMatchesMetricFamilies(t *testing.T) {
	dirs := []string{"."}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				dirs = append(dirs, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	inCode := map[string]bool{}
	for _, lit := range sourceMatches(t, regexp.MustCompile(`"cardpi_[a-z_]+"`), dirs...) {
		inCode[strings.Trim(lit, `"`)] = true
	}
	inDoc := map[string]bool{}
	row := regexp.MustCompile("(?m)^\\| `(cardpi_[a-z_]+)` \\|")
	for _, m := range row.FindAllStringSubmatch(readDoc(t, "OBSERVABILITY.md"), -1) {
		inDoc[m[1]] = true
	}
	if len(inCode) == 0 || len(inDoc) == 0 {
		t.Fatalf("scan found %d families in code and %d table rows — the scanner is broken", len(inCode), len(inDoc))
	}
	for f := range inCode {
		if !inDoc[f] {
			t.Errorf("metric family %s is created in code but has no OBSERVABILITY.md table row", f)
		}
	}
	for f := range inDoc {
		if !inCode[f] {
			t.Errorf("OBSERVABILITY.md documents metric family %s, which no code creates", f)
		}
	}
}

// sourceMatches collects the sorted, deduplicated matches of re across the
// non-test Go files of the given directories.
func sourceMatches(t *testing.T, re *regexp.Regexp, dirs ...string) []string {
	t.Helper()
	seen := map[string]bool{}
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range re.FindAllString(string(src), -1) {
				seen[m] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// readDoc loads a repo-root markdown document.
func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// undocumentedExports parses the package in dir (tests excluded) and
// returns the exported declarations lacking a doc comment.
func undocumentedExports(dir, importPath string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	for _, pkg := range pkgs {
		d := doc.New(pkg, importPath, 0)
		if strings.TrimSpace(d.Doc) == "" {
			missing = append(missing, "package "+d.Name)
		}
		for _, f := range d.Funcs {
			if strings.TrimSpace(f.Doc) == "" {
				missing = append(missing, "func "+f.Name)
			}
		}
		for _, v := range append(append([]*doc.Value(nil), d.Consts...), d.Vars...) {
			if strings.TrimSpace(v.Doc) == "" {
				missing = append(missing, "const/var group "+strings.Join(v.Names, ","))
			}
		}
		for _, typ := range d.Types {
			if strings.TrimSpace(typ.Doc) == "" {
				missing = append(missing, "type "+typ.Name)
			}
			for _, f := range typ.Funcs {
				if strings.TrimSpace(f.Doc) == "" {
					missing = append(missing, "func "+f.Name)
				}
			}
			for _, m := range typ.Methods {
				if strings.TrimSpace(m.Doc) == "" {
					missing = append(missing, fmt.Sprintf("method (%s).%s", typ.Name, m.Name))
				}
			}
			for _, v := range append(append([]*doc.Value(nil), typ.Consts...), typ.Vars...) {
				if strings.TrimSpace(v.Doc) == "" {
					missing = append(missing, "const/var group "+strings.Join(v.Names, ","))
				}
			}
			missing = append(missing, undocumentedFields(typ)...)
		}
	}
	return missing, nil
}

// undocumentedFields reports exported struct fields of an exported type
// that carry neither a doc comment nor a trailing line comment.
func undocumentedFields(typ *doc.Type) []string {
	var missing []string
	for _, spec := range typ.Decl.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			if field.Doc.Text() != "" || field.Comment.Text() != "" {
				continue
			}
			for _, name := range field.Names {
				if name.IsExported() {
					missing = append(missing, fmt.Sprintf("field %s.%s", typ.Name, name.Name))
				}
			}
			// Exported embedded fields without names.
			if len(field.Names) == 0 {
				if id := embeddedName(field.Type); id != "" && ast.IsExported(id) {
					missing = append(missing, fmt.Sprintf("embedded field %s.%s", typ.Name, id))
				}
			}
		}
	}
	return missing
}

func embeddedName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
