package fault

import (
	"reflect"
	"testing"
)

// FuzzParsePlan checks that ParsePlan never panics and that every plan
// it accepts round-trips through String(): re-parsing the rendered spec
// yields the same events (in injection-time order) and the same string.
// The seed corpus is in testdata/fuzz/FuzzParsePlan.
func FuzzParsePlan(f *testing.F) {
	f.Add(spec)
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ParsePlan(in)
		if err != nil {
			return
		}
		out := p.String()
		p2, err := ParsePlan(out)
		if err != nil {
			t.Fatalf("accepted %q but its rendering %q does not re-parse: %v", in, out, err)
		}
		if !reflect.DeepEqual(p.Sorted(), p2.Events) {
			t.Fatalf("round trip of %q changed the events:\n%+v\n%+v", in, p.Sorted(), p2.Events)
		}
		if out2 := p2.String(); out2 != out {
			t.Fatalf("rendering not stable:\n%s\n%s", out, out2)
		}
	})
}
