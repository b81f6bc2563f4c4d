package marp

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Cross-references between the documents and the code name an EXPERIMENTS
// section by the start of its heading, a DESIGN section by number, and an
// invariant by its number in DESIGN §6. TestDocumentReferencesResolve keeps
// every such reference pointing at something that exists.
var (
	experimentsRef = regexp.MustCompile(`(?:EXPERIMENTS(?:\.md)?,?|section) "([^"]+)"`)
	designRef      = regexp.MustCompile(`DESIGN(?:\.md)? §([0-9]+)`)
	invariantRef   = regexp.MustCompile(`(?i)\binvariant ([0-9]+)\b`)
	spaces         = regexp.MustCompile(`\s+`)
)

// rootDocs are the Markdown files at the root that state the system; the
// others there are history (CHANGES.md cites headings since retired), plans
// or retrieved text, and are not checked. Below the root every Markdown file
// is checked except bench/, the benchmark's own tree.
var rootDocs = map[string]bool{"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true, "ROADMAP.md": true}

func TestDocumentReferencesResolve(t *testing.T) {
	experiments := headings(t, "EXPERIMENTS.md", `^#+ (.+)$`)
	sections := headings(t, "DESIGN.md", `^## ([0-9]+)\. `)
	invariants := invariantNumbers(t)

	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" || path == "bench" {
				return filepath.SkipDir
			}
			return nil
		}
		if !referencing(path) {
			return nil
		}
		text := joinedText(t, path)
		for _, m := range experimentsRef.FindAllStringSubmatch(text, -1) {
			checked++
			if !hasPrefixed(experiments, m[1]) {
				t.Errorf("%s: %s names no EXPERIMENTS.md heading", path, m[0])
			}
		}
		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			checked++
			if !sections[m[1]] {
				t.Errorf("%s: %s names no DESIGN.md section", path, m[0])
			}
		}
		for _, m := range invariantRef.FindAllStringSubmatch(text, -1) {
			checked++
			if !invariants[m[1]] {
				t.Errorf("%s: %s is not an invariant of DESIGN.md §6", path, m[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no references found: the patterns no longer match the documents")
	}
}

// TestExperimentIndexMatchesHeadings: DESIGN §4's per-experiment index and
// EXPERIMENTS.md name the same figures, tables and ablations (the index's E
// rows are test-only extensions with no EXPERIMENTS section).
func TestExperimentIndexMatchesHeadings(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	indexed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\| \*\*([FCTA][0-9]+)\*\* \|`).FindAllStringSubmatch(string(raw), -1) {
		indexed[m[1]] = true
	}
	headed := headings(t, "EXPERIMENTS.md", `^## ([FCTA][0-9]+) — `)
	for id := range indexed {
		if !headed[id] {
			t.Errorf("DESIGN §4 indexes %s, which has no EXPERIMENTS.md section", id)
		}
	}
	for id := range headed {
		if !indexed[id] {
			t.Errorf("EXPERIMENTS.md has a %s section that DESIGN §4 does not index", id)
		}
	}
}

// referencing reports whether a file's cross-references are checked: the
// Markdown documents, the Go sources and the CI workflows.
func referencing(path string) bool {
	switch filepath.Ext(path) {
	case ".md":
		return filepath.Dir(path) != "." || rootDocs[path]
	case ".go":
		return true
	case ".yml":
		return filepath.Dir(path) == filepath.Join(".github", "workflows")
	}
	return false
}

// joinedText returns a file as one line with comment markers and runs of
// whitespace folded, so a reference wrapped across lines reads as written.
func joinedText(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	for i, l := range lines {
		l = strings.TrimSpace(l)
		switch filepath.Ext(path) {
		case ".go":
			l = strings.TrimPrefix(l, "//")
		case ".yml":
			l = strings.TrimPrefix(l, "#")
		case ".md":
			l = strings.TrimPrefix(l, ">")
		}
		lines[i] = l
	}
	return spaces.ReplaceAllString(strings.Join(lines, " "), " ")
}

// headings returns the first capture of pattern over a document's lines,
// whitespace-normalised, as a set.
func headings(t *testing.T, path, pattern string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(pattern)
	out := map[string]bool{}
	for _, l := range strings.Split(string(raw), "\n") {
		if m := re.FindStringSubmatch(l); m != nil {
			out[spaces.ReplaceAllString(strings.TrimSpace(m[1]), " ")] = true
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s: no line matches %s", path, pattern)
	}
	return out
}

// invariantNumbers returns the numbers of DESIGN §6's invariant list.
func invariantNumbers(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	start := strings.Index(text, "\n## 6. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §6")
	}
	text = text[start+1:]
	if end := strings.Index(text, "\n## "); end >= 0 {
		text = text[:end]
	}
	out := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([0-9]+)\. \*\*`).FindAllStringSubmatch(text, -1) {
		out[m[1]] = true
	}
	if len(out) == 0 {
		t.Fatal("DESIGN.md §6 lists no invariants")
	}
	return out
}

// hasPrefixed reports whether some heading starts with ref, whitespace
// normalised.
func hasPrefixed(headings map[string]bool, ref string) bool {
	ref = spaces.ReplaceAllString(strings.TrimSpace(ref), " ")
	for h := range headings {
		if strings.HasPrefix(h, ref) {
			return true
		}
	}
	return false
}
