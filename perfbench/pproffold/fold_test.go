package pproffold

import (
	"os"
	"strings"
	"testing"
)

// testdata/node.pprof is the CPU profile of one traced episode of the
// node workload. The expected buckets were derived independently, by
// classifying the stacks `go tool pprof -traces` prints for it.
func TestFoldFixture(t *testing.T) {
	f, err := os.Open("testdata/node.pprof")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tab, err := Fold(f)
	if err != nil {
		t.Fatal(err)
	}
	const ms = 1_000_000
	want := map[string]int64{
		"synth": 120 * ms, "refactor": 400 * ms, "tensor": 10 * ms, "errmetric": 10 * ms,
		"sim": 300 * ms, "blkio": 70 * ms, "device": 120 * ms, "staging": 130 * ms,
		"core": 90 * ms, "coordinator": 30 * ms, Sched: 160 * ms, Other: 60 * ms,
	}
	if tab.Unit != "nanoseconds" || tab.Total != 1500*ms {
		t.Errorf("total = %d %s, want %d nanoseconds", tab.Total, tab.Unit, 1500*ms)
	}
	var sum int64
	for b, v := range tab.Buckets {
		sum += v
		if v != want[b] {
			t.Errorf("bucket %s = %d, want %d", b, v, want[b])
		}
	}
	for b, v := range want {
		if _, ok := tab.Buckets[b]; !ok {
			t.Errorf("bucket %s missing, want %d", b, v)
		}
	}
	if sum != tab.Total {
		t.Errorf("buckets sum to %d, total is %d", sum, tab.Total)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.chansend", "tango/internal/sim.(*Engine).resume", "tango/internal/device.(*Device).issue", "main.main"}, "sim"},
		{[]string{"math.Sin", "tango/internal/synth.XGC"}, "synth"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, GC},
		{[]string{"runtime.casgstatus", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, Sched},
		{[]string{"internal/runtime/atomic.(*Uint64).Add", "runtime.findRunnable"}, Sched},
		{[]string{"syscall.Syscall", "main.cpuSeconds"}, Other},
		{nil, Other},
	} {
		if got := Classify(c.frames); got != c.want {
			t.Errorf("Classify(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "not a profile", "\x1f\x8bxx"} {
		if _, err := Fold(strings.NewReader(in)); err == nil {
			t.Errorf("Fold(%q) succeeded", in)
		}
	}
}
