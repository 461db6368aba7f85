package proto

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestProtocolPackagesDoNotImportEngine enforces the layering rule of
// the package doc: a protocol package never imports the engine
// (ssrank/internal/sim or a package below it). Protocols reach the
// engine through their descriptor and the structural TouchReporter and
// Condition interfaces; anything that drives a run belongs to the
// layers above (internal/sim/engine, the facade, internal/expt). Test
// files are exempt: a protocol's own tests may run it.
func TestProtocolPackagesDoNotImportEngine(t *testing.T) {
	dirs := []string{"../stable", "../core", "../leaderelect", "../coin", "../epidemic"}
	baselines, err := filepath.Glob("../baseline/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(baselines) == 0 {
		t.Fatal("no baseline protocol packages found")
	}
	dirs = append(dirs, baselines...)
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if p == "ssrank/internal/sim" || strings.HasPrefix(p, "ssrank/internal/sim/") {
					t.Errorf("%s imports %s: protocol packages must not import the engine", path, p)
				}
			}
		}
		if parsed == 0 {
			t.Errorf("%s: no non-test Go files", dir)
		}
	}
}
