package runtime_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestProtocolPackagesStayEngineNeutral enforces the runtime seam at build
// time: the protocol packages may depend on the runtime interfaces only,
// never on a concrete engine. If this test fails, engine-specific types have
// leaked back into protocol code and the live deployment no longer runs the
// same implementation as the simulator.
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
	}{
		{"agent", neutral}, {"replica", neutral}, {"core", neutral}, {"reliable", neutral}, {"optimistic", neutral},
		{"runtime", []string{gob}},
		{"runtime/live", []string{gob}},
		{"transport", []string{gob, "repro", "repro/internal/desengine", "repro/internal/des"}},
	}

	fset := token.NewFileSet()
	for _, rule := range rules {
		dir := filepath.Join("..", rule.pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") {
				continue
			}
			forbidden := rule.forbidden
			if strings.HasSuffix(name, "_test.go") {
				forbidden = []string{gob}
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			for _, imp := range f.Imports {
				ipath, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("%s: bad import %s", path, imp.Path.Value)
				}
				for _, bad := range forbidden {
					if ipath == bad {
						t.Errorf("%s imports %s, which internal/%s must not", path, ipath, rule.pkg)
					}
				}
			}
		}
	}
}
