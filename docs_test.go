package modelnet_test

// Docs checks: every relative link in the repository's markdown files must
// point at a file (or directory) that exists, and every test DESIGN.md cites
// as "what checks it" must exist. CI runs them by name, and they ride `go
// test ./...` like everything else, so a renamed file or test cannot
// silently orphan the README or DESIGN cross-references.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches [text](target); targets with spaces or parentheses do not
// occur in this repository's docs.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func TestMarkdownRelativeLinks(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".claude" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found — is the test running at the repo root?")
	}
	checked := 0
	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue // external or intra-document
			}
			// Strip any fragment; resolve relative to the linking file.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (resolved %s)", md, m[1], resolved)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no relative links checked — the README should have some")
	}
}

// testName is a test, fuzz target or benchmark named anywhere in markdown —
// code span, fence or prose — and testFunc the declaration of one.
var (
	testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

func TestDesignCitesOnlyTestsThatExist(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".claude" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := testName.FindAllString(string(design), -1)
	for _, name := range cited {
		if !defined[name] {
			t.Errorf("DESIGN.md cites %s, which no _test.go file declares", name)
		}
	}
	if len(cited) == 0 {
		t.Error("no test names cited — DESIGN.md's \"what checks it\" paragraphs should have some")
	}
}
