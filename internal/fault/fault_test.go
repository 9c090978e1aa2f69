package fault

import (
	"strings"
	"testing"

	"tango/internal/container"
	"tango/internal/device"
	"tango/internal/sim"
	"tango/internal/trace"
	"tango/internal/workload"
)

const spec = "bw-collapse@900:dev=hdd,factor=0.2,dur=120; read-err@1500:dev=hdd,dur=45; " +
	"weight-fail@600:cg=analytics,dur=180; join@1800:name=noise7,period=90,mb=512; " +
	"leave@2400:name=noise1; period@3000:name=noise2,period=75"

func TestParseRoundTrip(t *testing.T) {
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 6 {
		t.Fatalf("events = %d", len(p.Events))
	}
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", p.String(), err)
	}
	if p.String() != p2.String() {
		t.Fatalf("round trip drifted:\n%s\n%s", p, p2)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"",
		"explode@10:dev=hdd,dur=5",              // unknown kind
		"bw-collapse@10:dev=hdd,dur=5",          // missing factor
		"bw-collapse@10:dev=hdd,factor=2,dur=5", // factor out of range
		"bw-collapse@10:factor=0.5,dur=5",       // missing target
		"stuck@10:dev=hdd",                      // windowed kind without duration
		"join@10:name=x,period=60",              // join without mb
		"leave@10:name=x,bogus=1",               // unknown param
		"bw-collapse@ten:dev=hdd,factor=0.5,dur=5",
		// Non-finite numbers and out-of-range seeds.
		"bw-collapse@10:dev=hdd,factor=NaN,dur=120",
		"bw-collapse@10:dev=hdd,factor=0.5,dur=Inf",
		"bw-collapse@+Inf:dev=hdd,factor=0.5,dur=5",
		"latency@10:dev=hdd,add=-Inf,dur=5",
		"throttle-reset@10:cg=a,mb=NaN,dur=5",
		"period@10:name=x,period=Inf",
		"join@10:name=x,period=NaN,mb=1",
		"join@10:name=x,period=60,mb=Inf",
		"join@10:name=x,period=60,mb=1e303", // overflows to +Inf bytes
		"join@10:name=x,period=60,mb=1,phase=NaN",
		"join@10:name=x,period=60,mb=1,jitter=Inf",
		"join@10:name=x,period=60,mb=1,seed=1e300",
		"join@10:name=x,period=60,mb=1,seed=9223372036854775808",
		"leave@10:name=x,dur=5", // dur on a non-windowed kind
	}
	for _, s := range bad {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("spec %q accepted", s)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := GenerateOptions{
		Horizon: 3600, Device: "hdd", Cgroup: "analytics",
		Interferers: []string{"noise1", "noise2"}, Events: 9,
	}
	a, err := Generate(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	c, err := Generate(8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical plans")
	}
	if len(a.Events) != 9 {
		t.Fatalf("events = %d", len(a.Events))
	}
	// Generated plans round-trip through the spec grammar.
	if _, err := ParsePlan(a.String()); err != nil {
		t.Fatalf("generated plan does not re-parse: %v", err)
	}
}

func testNode(t *testing.T) *container.Node {
	t.Helper()
	node := container.NewNode("faulttest")
	node.MustAddDevice(device.SSD("ssd"))
	node.MustAddDevice(device.HDD("hdd"))
	return node
}

func TestInjectorDeviceFaultWindowsCompose(t *testing.T) {
	node := testNode(t)
	rec := trace.New(256)
	plan := &Plan{Events: []Event{
		{At: 10, Kind: BWCollapse, Target: "hdd", Factor: 0.5, Duration: 20},
		{At: 15, Kind: BWCollapse, Target: "hdd", Factor: 0.2, Duration: 10},
	}}
	in := NewInjector(node, rec, plan)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	dev := node.Device("hdd")
	check := func(at float64, want bool) {
		node.Engine().At(at, func() {
			if dev.Faulted() != want {
				t.Errorf("t=%g: Faulted() = %v, want %v", at, dev.Faulted(), want)
			}
		})
	}
	check(5, false)
	check(12, true)  // first window open
	check(20, true)  // overlap
	check(27, true)  // second cleared, first still open
	check(35, false) // both cleared
	if err := node.Engine().Run(100); err != nil {
		t.Fatal(err)
	}
	if in.Injected() != 2 || in.Cleared() != 2 || in.Skipped() != 0 {
		t.Fatalf("counts = %d/%d/%d", in.Injected(), in.Cleared(), in.Skipped())
	}
	if got := len(rec.Filter(trace.KindFault)); got != 4 {
		t.Fatalf("fault events = %d, want 4 (2 inject + 2 clear)", got)
	}
}

func TestInjectorReadErrorWindow(t *testing.T) {
	node := testNode(t)
	plan := &Plan{Events: []Event{{At: 10, Kind: ReadError, Target: "hdd", Duration: 20}}}
	in := NewInjector(node, nil, plan)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	dev := node.Device("hdd")
	var during, after error
	node.MustLaunch("reader", func(c *container.Container, p *sim.Proc) {
		p.Sleep(15)
		_, during = dev.TryRead(p, c.Cgroup(), 1024)
		p.Sleep(30)
		_, after = dev.TryRead(p, c.Cgroup(), 1024)
	})
	if err := node.Engine().Run(100); err != nil {
		t.Fatal(err)
	}
	if during == nil {
		t.Fatal("read inside the window succeeded")
	}
	if after != nil {
		t.Fatalf("read after the window failed: %v", after)
	}
}

func TestInjectorWeightFailWindow(t *testing.T) {
	node := testNode(t)
	node.MustLaunch("analytics", func(c *container.Container, p *sim.Proc) { p.Sleep(50) })
	plan := &Plan{Events: []Event{{At: 10, Kind: WeightFail, Target: "analytics", Duration: 10}}}
	in := NewInjector(node, nil, plan)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	cg := node.Cgroups().Lookup("analytics")
	node.Engine().At(15, func() {
		if err := cg.TrySetWeight(500); err == nil {
			t.Error("weight write inside the window succeeded")
		}
	})
	node.Engine().At(25, func() {
		if err := cg.TrySetWeight(500); err != nil {
			t.Errorf("weight write after the window failed: %v", err)
		}
	})
	if err := node.Engine().Run(100); err != nil {
		t.Fatal(err)
	}
	if cg.Weight() != 500 {
		t.Fatalf("weight = %d", cg.Weight())
	}
}

func TestInjectorSkipsMissingTargets(t *testing.T) {
	node := testNode(t)
	rec := trace.New(64)
	plan := &Plan{Events: []Event{
		{At: 5, Kind: WeightFail, Target: "ghost", Duration: 10},
		{At: 6, Kind: Leave, Target: "ghost"},
	}}
	in := NewInjector(node, rec, plan)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := node.Engine().Run(50); err != nil {
		t.Fatal(err)
	}
	if in.Skipped() != 2 || in.Injected() != 0 {
		t.Fatalf("skipped = %d injected = %d", in.Skipped(), in.Injected())
	}
}

func TestInjectorUnknownDeviceRejectedAtArm(t *testing.T) {
	node := testNode(t)
	plan := &Plan{Events: []Event{{At: 5, Kind: Stuck, Target: "nvme", Duration: 1}}}
	if err := NewInjector(node, nil, plan).Arm(); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestInjectorChurn(t *testing.T) {
	node := testNode(t)
	hdd := node.Device("hdd")
	noises := workload.LaunchNoiseSetControlled(node, hdd, []workload.Noise{
		{Name: "n1", Period: 30, CheckpointBytes: device.MB, Seed: 1},
		{Name: "n2", Period: 30, CheckpointBytes: device.MB, Seed: 2},
	})
	plan := &Plan{Events: []Event{
		{At: 40, Kind: Leave, Target: "n1"},
		{At: 40, Kind: PeriodChange, Target: "n2", Factor: 75},
		{At: 50, Kind: Join, Target: "extra", Noise: workload.Noise{
			Name: "extra", Period: 60, CheckpointBytes: device.MB, Seed: 3,
		}},
	}}
	in := NewInjector(node, nil, plan)
	in.RegisterNoise(noises)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := node.Engine().Run(200); err != nil {
		t.Fatal(err)
	}
	if !noises["n1"].Stopped() {
		t.Fatal("leave did not stop the interferer")
	}
	if noises["n2"].Stopped() {
		t.Fatal("period change stopped the interferer")
	}
	if node.Container("extra") == nil {
		t.Fatal("join did not launch the interferer")
	}
	if in.Injected() != 3 {
		t.Fatalf("injected = %d", in.Injected())
	}
}

func TestUnpaired(t *testing.T) {
	evs := []trace.Event{
		{T: 10, Kind: trace.KindFault, Msg: "inject id=0 kind=stuck dev=hdd"},
		{T: 12, Kind: trace.KindRecover, Msg: "retry dev=hdd attempt=1"},
		{T: 20, Kind: trace.KindFault, Msg: "inject id=1 kind=leave name=n1"},
		{T: 21, Kind: trace.KindFault, Msg: "clear id=0 kind=stuck dev=hdd"},
	}
	up := Unpaired(evs)
	if len(up) != 1 || !strings.Contains(up[0].Msg, "id=1") {
		t.Fatalf("unpaired = %+v", up)
	}
	evs = append(evs, trace.Event{T: 30, Kind: trace.KindRefit, Msg: "regime change"})
	if got := Unpaired(evs); len(got) != 0 {
		t.Fatalf("unpaired after refit = %+v", got)
	}
}

func TestNodeKillParseRoundTrip(t *testing.T) {
	p, err := ParsePlan("node-kill@120:node=node3,dur=180")
	if err != nil {
		t.Fatal(err)
	}
	e := p.Events[0]
	if e.Kind != NodeKill || e.Target != "node3" || e.At != 120 || e.Duration != 180 {
		t.Fatalf("parsed %+v", e)
	}
	if got := p.String(); got != "node-kill@120:node=node3,dur=180" {
		t.Fatalf("round trip: %q", got)
	}
	if _, err := ParsePlan("node-kill@120:node=node3"); err == nil {
		t.Fatal("node-kill without dur should be rejected (windowed)")
	}
}

func TestInjectorSkipsNodeKill(t *testing.T) {
	node := container.NewNode("n")
	eng := node.Engine()
	node.MustAddDevice(device.HDD("hdd"))
	rec := trace.New(64)
	plan, err := ParsePlan("node-kill@10:node=node0,dur=60")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(node, rec, plan)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if in.Skipped() != 1 || in.Injected() != 0 {
		t.Fatalf("skipped=%d injected=%d, want 1/0 (node kills are cluster-level)", in.Skipped(), in.Injected())
	}
}
