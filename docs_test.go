package pacon_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameLiveIdentifiers keeps DESIGN.md and README.md describing
// the system as it is: every backticked token shaped like an identifier
// of this repository — pkg.Name, Name( or Name(), CamelCase, snake_case —
// must occur as a word in some .go file of the tree (comments and tests
// count: the point is that the name still means something here). Names
// the docs take from elsewhere are exempt: exported metric names
// (*_total, *_seconds, pacon_*, ops_dropped_*), errno words, environment
// variables and file names.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	word := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	live := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, w := range word.FindAll(src, -1) {
			live[string(w)] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	span := regexp.MustCompile("`[^`\n]+`")
	// An identifier, dotted or not, with at most a call's parentheses
	// behind it; anything else in backticks (commands, paths, expressions,
	// prose) names no single thing and is not checked.
	ident := regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\)?)?$`)
	shaped := regexp.MustCompile(`[a-z0-9][A-Z]|^[A-Z][a-z]|_|\.|\($`)
	exempt := regexp.MustCompile(`_total$|_seconds$|^pacon_|^ops_dropped_|^E[A-Z]+$|^[A-Z][A-Z0-9_]*$|\.(go|md|json|yml|txt)$`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, tok := range span.FindAllString(line, -1) {
				tok = strings.Trim(tok, "`")
				if !ident.MatchString(tok) || !shaped.MatchString(tok) || exempt.MatchString(tok) {
					continue
				}
				for _, part := range strings.Split(strings.TrimRight(tok, "()"), ".") {
					if !live[part] {
						t.Errorf("%s:%d: `%s`: no .go file has the word %q", doc, i+1, tok, part)
					}
				}
			}
		}
	}
}

// TestNoRoadmapNumbersInCode keeps roadmap citations out of the code, CI,
// DESIGN.md and README.md: the roadmap renumbers its items at every
// re-anchor, so a comment gives the reason an item stands for, not its
// number.
func TestNoRoadmapNumbersInCode(t *testing.T) {
	cite := "ROADMAP" + " item"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		doc := path == "DESIGN.md" || path == "README.md"
		if err != nil || d.IsDir() || !doc && !strings.HasSuffix(path, ".go") && !strings.HasPrefix(path, ".github"+string(filepath.Separator)) {
			return err
		}
		src, err := os.ReadFile(path)
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, cite) {
				t.Errorf("%s:%d: cites a roadmap item by number", path, i+1)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChangesLinesFitTheBudget keeps CHANGES.md a log a reader can scan:
// from the 31st change on, every line is at most 600 bytes. What a line
// cannot hold belongs in EXPERIMENTS.md or DESIGN.md.
func TestChangesLinesFitTheBudget(t *testing.T) {
	text, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	budgeted := false
	for i, line := range strings.Split(string(text), "\n") {
		var change int
		if _, err := fmt.Sscanf(line, "PR %d", &change); err == nil && change >= 31 {
			budgeted = true
		}
		if budgeted && len(line) > 600 {
			t.Errorf("CHANGES.md:%d: %d bytes, over the 600 budget: %.40s…", i+1, len(line), line)
		}
	}
	if !budgeted {
		t.Error("CHANGES.md has no line for the 31st change, where the budget starts")
	}
}

// TestCoreHasNoWallClockWait keeps internal/core's waits on recorded
// state: a crossing, an ack and a claim wait end on a node's in-flight
// table, a stalled drain pass on the region's progress, and none on a
// sleep, a timer or a patience. Reading the wall clock for telemetry
// (time.Now) stays allowed; tests may wait as they like.
func TestCoreHasNoWallClockWait(t *testing.T) {
	files, err := filepath.Glob("internal/core/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no core sources: %v", err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, wait := range []string{"time.Sleep", "time.After(", "time.NewTimer", "time.AfterFunc"} {
				if strings.Contains(line, wait) {
					t.Errorf("%s:%d: %s: a core wait must end on recorded state, not on the clock", path, i+1, wait)
				}
			}
		}
	}
}
