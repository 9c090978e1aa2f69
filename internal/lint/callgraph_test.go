package lint

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestCallGraphEdgeKinds builds the call graph of the edgefix fixture
// and checks its edges both ways: every expected edge is present with
// its kind, and no other edge exists.
func TestCallGraphEdgeKinds(t *testing.T) {
	pkgs, err := loadFixtureDirs([]FixtureDir{{
		Dir:        filepath.Join("testdata", "src", "edgefix"),
		ImportPath: "tango/internal/fixture/edgefix",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if errs := pkgs[0].TypeErrs; len(errs) > 0 {
		t.Fatalf("fixture does not type-check: %v", errs)
	}
	var got []string
	for _, n := range NewProgram(pkgs).Graph().Nodes {
		for _, e := range n.Out {
			got = append(got, n.DisplayName()+" -> "+e.Callee.DisplayName()+" ["+e.Kind.String()+"]")
		}
	}
	sort.Strings(got)
	want := []string{
		"edgefix.Apply -> edgefix.double [funcval]",
		"edgefix.Apply -> edgefix.triple [funcval]",
		"edgefix.Bound -> (edgefix.Square).Area [ref]",
		"edgefix.Direct -> edgefix.helper [call]",
		"edgefix.Dispatch -> (*edgefix.Circle).Area [iface]",
		"edgefix.Dispatch -> (edgefix.Square).Area [iface]",
		"edgefix.Measure -> (*edgefix.Circle).Area [call]",
		"edgefix.Pick -> edgefix.double [ref]",
		"edgefix.Pick -> edgefix.triple [ref]",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("edges:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
