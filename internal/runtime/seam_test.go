package runtime_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestProtocolPackagesStayEngineNeutral enforces the runtime seam at build
// time: the protocol packages may depend on the runtime interfaces only,
// never on a concrete engine — neither directly nor through anything else
// in the module they import. If this test fails, engine-specific types have
// leaked back into protocol code and the live deployment no longer runs the
// same implementation as the simulator; the error names the import chain.
//
// The same scan keeps two deleted paths deleted: none of these packages
// imports encoding/gob, not even in a test (the wire codec is the only
// encoding, and gob is not hardened against hostile input), and the client
// plane serves live nodes only — no simulated cluster behind a socket.
//
// Test files are exempt from every rule but the gob ban: they legitimately
// use the DES engine as a deterministic oracle for protocol behaviour.
func TestProtocolPackagesStayEngineNeutral(t *testing.T) {
	const gob = "encoding/gob"
	neutral := []string{gob, "repro/internal/des", "repro/internal/simnet", "repro/internal/runtime/live", "repro/internal/desengine"}
	rules := []struct {
		pkg       string // directory under internal/
		forbidden []string
		// direct limits the rule to the package's own imports. The client
		// plane's is: it records and replays scenarios, and the replayer
		// runs on desengine.
		direct bool
	}{
		{pkg: "agent", forbidden: neutral},
		{pkg: "replica", forbidden: neutral},
		{pkg: "core", forbidden: neutral},
		{pkg: "reliable", forbidden: neutral},
		{pkg: "optimistic", forbidden: neutral},
		{pkg: "baseline", forbidden: neutral},
		{pkg: "quorum", forbidden: neutral},
		{pkg: "runtime", forbidden: []string{gob}},
		{pkg: "runtime/live", forbidden: []string{gob}},
		{pkg: "transport", forbidden: []string{gob, "repro", "repro/internal/desengine", "repro/internal/des"}, direct: true},
	}

	fset := token.NewFileSet()
	read := map[string]imports{}
	load := func(path string) imports {
		if _, ok := read[path]; !ok {
			read[path] = readImports(t, fset, path)
		}
		return read[path]
	}
	for _, rule := range rules {
		path := "repro/internal/" + rule.pkg
		if slices.Contains(load(path).test, gob) {
			t.Errorf("a test of internal/%s imports %s", rule.pkg, gob)
		}
		// Breadth-first over the package's non-test imports within the
		// module, remembering how each package was reached.
		via := map[string]string{path: ""}
		queue := []string{path}
		for len(queue) > 0 {
			from := queue[0]
			queue = queue[1:]
			for _, imp := range load(from).prod {
				if slices.Contains(rule.forbidden, imp) {
					t.Errorf("internal/%s must not import %s: %s", rule.pkg, imp, chain(via, from, imp))
					continue
				}
				if rule.direct || !inModule(imp) {
					continue
				}
				if _, seen := via[imp]; !seen {
					via[imp] = from
					queue = append(queue, imp)
				}
			}
		}
	}
}

// chain renders how the scan reached imp: "core → quorum → simnet".
func chain(via map[string]string, from, imp string) string {
	names := []string{short(imp)}
	for p := from; p != ""; p = via[p] {
		names = append(names, short(p))
	}
	slices.Reverse(names)
	return strings.Join(names, " → ")
}

func short(path string) string {
	return strings.TrimPrefix(strings.TrimPrefix(path, "repro/"), "internal/")
}

func inModule(path string) bool { return path == "repro" || strings.HasPrefix(path, "repro/") }

// imports is what a package's non-test (prod) and test files import.
type imports struct{ prod, test []string }

// readImports parses the import lists of the module package at path from
// its source, found from this package's directory.
func readImports(t *testing.T, fset *token.FileSet, path string) imports {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")
	dir := filepath.Join("..", "..", filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var out imports
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") {
			continue
		}
		file := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parsing %s: %v", file, err)
		}
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: bad import %s", file, imp.Path.Value)
			}
			list := &out.prod
			if strings.HasSuffix(name, "_test.go") {
				list = &out.test
			}
			if !slices.Contains(*list, ipath) {
				*list = append(*list, ipath)
			}
		}
	}
	return out
}
