// Command perfbench is tango's compute-cost benchmark: what the
// simulator costs in host time and memory to produce its simulated
// results, end to end and layer by layer. See README.md for the
// workloads, the metrics and how they relate.
//
//	go build -o perfbench . && ./perfbench -workload node -seed 1 -seconds 10 -trace 0
//
// A run repeats one workload's episode (set-up, then the timed
// simulation) with the same seed until the time is spent, each in a
// child process of its own, and reports medians over the episodes,
// with host times scaled to the speed of a reference kernel timed
// around every episode (reference.go).
// Every episode must reproduce the same simulated digest. With
// -trace 1, half of the time goes to traced episodes, which keep spans
// and a CPU profile, and the run reports the per-layer metrics instead
// of the end-to-end ones. The last line of standard output is a JSON
// object; the exit status is 1 when a correctness check failed and 2 on
// bad flags.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"tango/internal/runpool"
	"tango/perfbench/pproffold"
)

// episode is one workload instance after set-up.
type episode interface {
	// run is the timed part: the simulation itself.
	run(sp *spanLog, parent int) error
	// collect checks the finished run, records its simulated outputs
	// in rep and returns their digest.
	collect(rep *episodeReport) digest
	// drain ends every simulated process the episode left parked.
	drain() error
}

type bench struct {
	why string
	// setups is how many times an episode sets up, keeping the last
	// (0 means once). Only a set-up that starts no simulated process
	// can be thrown away, and only a short one needs repeating to give
	// a steady median.
	setups int
	setup  func(seed int64, sp *spanLog, parent int) (episode, error)
}

// Simulated run lengths, sized so one episode's simulation takes one
// to two seconds on a 2-core host.
const (
	nodeSteps       = 15000
	nodeFaultsSteps = 4500
	fleetEpochs     = 10
)

var workloads = map[string]bench{
	"node": {
		why: "the paper's scenario: three cross-layer sessions arbitrated by the coordinator against six checkpoint writers on the HDD",
		setup: func(seed int64, sp *spanLog, parent int) (episode, error) {
			return setupNode(seed, nodeSteps, false, sp, parent)
		},
	},
	"node-faults": {
		why: "the same node with a small prefetching cache, hedged resil reads, token buckets and a bounded fault plan",
		setup: func(seed int64, sp *spanLog, parent int) (episode, error) {
			return setupNode(seed, nodeFaultsSteps, true, sp, parent)
		},
	},
	"fleet": {
		why:    "200 nodes and 20k sessions with a binding shared egress and node kills: barrier, water-filling and parallel windows",
		setups: 5,
		setup: func(seed int64, sp *spanLog, parent int) (episode, error) {
			return setupFleet(seed, fleetEpochs, sp, parent)
		},
	},
}

// Episodes per run, at least: three untraced for a median and the
// same-seed repeat check, two traced.
const minPlain, minTraced = 3, 2

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: node, node-faults or fleet")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "host seconds to spend on episodes")
	traceFlag := fs.Int("trace", 0, "1 = per-layer run: spans and a CPU profile")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the traced episodes' spans and CPU profiles")
	child := fs.Int("episode", 0, "run only episode `n` (from 1) in this process and print its report; used by the parent run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seed < 1 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || *child < 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seed >= 1, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	width := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(width)
	runpool.SetWorkers(width)

	if *child > 0 {
		rep, err := runEpisode(w, *seed, *traceFlag == 1, *outDir, *child)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(rep)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s episode %d: %v\n", *name, *child, err)
			return 1
		}
		return 0
	}

	res, err := measure(args, *seconds, *traceFlag == 1, *outDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s, seed %d: %s\n", *name, *seed, w.why)
	if err := res.report(stdout, *traceFlag == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(res.gate) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// episodeReport is what one episode's process reports to the parent:
// its host cost, and its simulated outputs with their digest.
type episodeReport struct {
	SetupS, RunS, CPUS  float64
	Mallocs, AllocBytes float64
	GCCycles, GCPauseS  float64
	PeakRSSMB           float64 // filled in by the parent from the child's rusage
	RefS, RefCPUS       float64 // reference kernel around the episode, by the parent

	Steps, Attempted, Failed int
	AggMBps                  float64
	StepUS                   [2]float64 // host µs per session-step, first and last quarter
	Digest                   uint64
	Layer                    map[string]float64
	Spans                    map[string]float64 // seconds per span name (traced episodes)
	Gate                     []string
}

// runEpisode runs one episode in this process; a traced one also keeps
// spans and a CPU profile and writes both to outDir.
func runEpisode(w bench, seed int64, traced bool, outDir string, n int) (*episodeReport, error) {
	if !traced {
		return episodeOnce(w, seed, nil)
	}
	sp := newSpanLog()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	rep, err := episodeOnce(w, seed, sp)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	rep.Spans = sp.totals()
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("cpu-%d.pprof", n)), prof.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("writing CPU profile: %w", err)
	}
	return rep, sp.write(filepath.Join(outDir, fmt.Sprintf("spans-%d.json", n)))
}

// episodeOnce sets up, runs, checks and drains one episode.
func episodeOnce(w bench, seed int64, sp *spanLog) (*episodeReport, error) {
	rep := &episodeReport{}
	root := sp.begin("episode", 0)
	defer sp.end(root)

	var ep episode
	var setupS []float64
	for i := max(w.setups, 1); i > 0; i-- {
		spi := sp // spans cover the kept set-up only
		if i > 1 {
			spi = nil
		}
		t0 := time.Now()
		setupID := spi.begin("setup", root)
		var err error
		ep, err = w.setup(seed, spi, setupID)
		spi.end(setupID)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	rep.SetupS = median(setupS)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := ep.run(sp, root); err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	rep.RunS = time.Since(t1).Seconds()
	cpu1, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	rep.CPUS = cpu1 - cpu0
	rep.Mallocs = float64(m1.Mallocs - m0.Mallocs)
	rep.AllocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	rep.GCCycles = float64(m1.NumGC - m0.NumGC)
	rep.GCPauseS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9

	d := ep.collect(rep)
	if err := ep.drain(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if rep.Steps == 0 {
		return nil, fmt.Errorf("episode completed no session-steps")
	}
	// Only traced episodes count spawned procs, so the digest leaves
	// the count out.
	d.layerMap(rep.Layer, "sim.procs_spawned")
	rep.Digest = uint64(d)
	return rep, nil
}

// cpuSeconds returns the CPU time of the whole process, from the
// nanosecond process clock (getrusage counts in coarser ticks).
func cpuSeconds() (float64, error) {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, nil
}

// result gathers a run.
type result struct {
	plain, traced []*episodeReport
	gate          []string
	cpu           pproffold.Table // summed over the traced episodes
}

// measure runs episodes, each in a child process given the parent's
// own arguments, until seconds are spent; the traced ones (when asked)
// take the second half.
func measure(args []string, seconds float64, traced bool, outDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	res := &result{cpu: pproffold.Table{Buckets: map[string]int64{}}}
	start := time.Now()
	plainBudget := seconds
	if traced {
		plainBudget = seconds / 2
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, fmt.Errorf("creating %s: %w", outDir, err)
		}
		// Drop an earlier run's files, so the directory holds this run's.
		for _, pat := range []string{"cpu-*.pprof", "spans-*.json"} {
			old, _ := filepath.Glob(filepath.Join(outDir, pat)) // the patterns are well-formed
			for _, f := range old {
				if err := os.Remove(f); err != nil {
					return nil, err
				}
			}
		}
	}
	// A first, untimed pass faults in the kernel's memory.
	if _, _, err := reference(); err != nil {
		return nil, err
	}
	n := 0
	spawn := func(trace string) (*episodeReport, error) {
		n++
		w0, c0, err := reference()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe, append(append([]string(nil), args...),
			"-trace", trace, "-episode", strconv.Itoa(n))...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // the episode dies with the run
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("episode %d: %w", n, err)
		}
		rep := &episodeReport{}
		if err := json.Unmarshal(out.Bytes(), rep); err != nil {
			return nil, fmt.Errorf("episode %d: decoding its report: %w", n, err)
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rep.PeakRSSMB = float64(ru.Maxrss) / 1024
		}
		w1, c1, err := reference()
		if err != nil {
			return nil, err
		}
		rep.RefS, rep.RefCPUS = (w0+w1)/2, (c0+c1)/2
		return rep, nil
	}
	for len(res.plain) < minPlain || time.Since(start).Seconds() < plainBudget {
		rep, err := spawn("0")
		if err != nil {
			return nil, err
		}
		res.plain = append(res.plain, rep)
	}
	for traced && (len(res.traced) < minTraced || time.Since(start).Seconds() < seconds) {
		rep, err := spawn("1")
		if err != nil {
			return nil, err
		}
		res.traced = append(res.traced, rep)
		if err := res.addProfile(filepath.Join(outDir, fmt.Sprintf("cpu-%d.pprof", n))); err != nil {
			return nil, err
		}
	}

	res.gate = append(res.gate, res.plain[0].Gate...)
	for _, r := range append(res.plain[1:], res.traced...) {
		if r.Digest != res.plain[0].Digest {
			res.gate = append(res.gate, fmt.Sprintf("simulated digest %016x of an episode differs from the first episode's %016x", r.Digest, res.plain[0].Digest))
			break
		}
	}
	return res, nil
}

// addProfile folds one traced episode's CPU profile into the run's
// table, checking that its buckets sum to its total.
func (res *result) addProfile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("opening CPU profile: %w", err)
	}
	defer f.Close()
	tab, err := pproffold.Fold(f)
	if err != nil {
		return err
	}
	var sum int64
	for b, v := range tab.Buckets {
		sum += v
		res.cpu.Buckets[b] += v
	}
	if sum != tab.Total {
		res.gate = append(res.gate, fmt.Sprintf("CPU buckets of %s sum to %d, its total is %d", path, sum, tab.Total))
	}
	res.cpu.Total += tab.Total
	res.cpu.Samples += tab.Samples
	return nil
}

// medianOf returns the median over episodes of f.
func medianOf(rs []*episodeReport, f func(r *episodeReport) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name with its unit and clock, then the
// JSON result line.
func (res *result) report(w io.Writer, traced bool) error {
	first, p := res.plain[0], res.plain
	var defs []metricDef
	values := map[string]float64{}
	if traced {
		defs = perLayer
		res.perLayerValues(values)
	} else {
		defs = endToEnd
		// Host times scaled to the reference speed (reference.go).
		values["setup_s"] = medianOf(p, func(r *episodeReport) float64 { return r.SetupS * refNominalS / r.RefS })
		values["steps_per_s"] = medianOf(p, func(r *episodeReport) float64 { return float64(r.Steps) / r.RunS * r.RefS / refNominalS })
		values["cpu_us_per_step"] = medianOf(p, func(r *episodeReport) float64 { return r.CPUS * 1e6 / float64(r.Steps) * refNominalCPUS / r.RefCPUS })
		values["peak_rss_mb"] = medianOf(p, func(r *episodeReport) float64 { return r.PeakRSSMB })
		values["allocs_per_step"] = medianOf(p, func(r *episodeReport) float64 { return r.Mallocs / float64(r.Steps) })
		values["alloc_bytes_per_step"] = medianOf(p, func(r *episodeReport) float64 { return r.AllocBytes / float64(r.Steps) })
		values["agg_mbps"] = first.AggMBps
	}
	fmt.Fprintf(w, "episodes: %d untraced, %d traced; %d session-steps each; digest %016x\n",
		len(res.plain), len(res.traced), first.Steps, first.Digest)
	fmt.Fprintf(w, "reference kernel %.4g s wall, %.4g s CPU (nominal %g, %g); unscaled: setup_s %.6g, steps_per_s %.6g, cpu_us_per_step %.6g\n",
		medianOf(p, func(r *episodeReport) float64 { return r.RefS }),
		medianOf(p, func(r *episodeReport) float64 { return r.RefCPUS }),
		refNominalS, refNominalCPUS,
		medianOf(p, func(r *episodeReport) float64 { return r.SetupS }),
		medianOf(p, func(r *episodeReport) float64 { return float64(r.Steps) / r.RunS }),
		medianOf(p, func(r *episodeReport) float64 { return r.CPUS * 1e6 / float64(r.Steps) }))
	if n := first.Layer["io_samples"]; n > 0 {
		fmt.Fprintf(w, "io_p50_s %.6g, io_p99_s %.6g over %.0f post-warm-up session-steps (simulated)\n",
			first.Layer["io_p50_s"], first.Layer["io_p99_s"], n)
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		v := values[d.name]
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-34s %14.6g %-8s %s\n", d.name, v, d.unit, d.clock)
	}
	for _, g := range res.gate {
		fmt.Fprintln(w, "CHECK FAILED:", g)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.gate) == 0, first.Attempted, first.Failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// perLayerValues fills the per-layer metrics: counts from the first
// traced episode (the digest check makes them the same in every
// episode), host figures as medians, CPU per traced episode.
func (res *result) perLayerValues(v map[string]float64) {
	tr := res.traced
	for k, x := range tr[0].Layer {
		v[k] = x
	}
	v["fail_frac"] = float64(tr[0].Failed) / float64(tr[0].Attempted)
	v["sim.step_us_first_q"] = medianOf(res.plain, func(r *episodeReport) float64 { return r.StepUS[0] })
	v["sim.step_us_last_q"] = medianOf(res.plain, func(r *episodeReport) float64 { return r.StepUS[1] })
	v["runtime.gc_cycles"] = medianOf(tr, func(r *episodeReport) float64 { return r.GCCycles })
	v["runtime.gc_pause_s"] = medianOf(tr, func(r *episodeReport) float64 { return r.GCPauseS })
	scaledRun := func(r *episodeReport) float64 { return r.RunS / r.RefS }
	v["trace_overhead_frac"] = medianOf(tr, scaledRun)/medianOf(res.plain, scaledRun) - 1
	for name := range tr[0].Spans {
		v[name+"_s"] = medianOf(tr, func(r *episodeReport) float64 { return r.Spans[name] })
	}

	// Packages without a metric of their own count as other.
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	n := float64(len(tr))
	for b, ns := range res.cpu.Buckets {
		key := b + ".cpu_s"
		if b == pproffold.GC || b == pproffold.Sched {
			key = b + "_cpu_s"
		}
		if !known[key] {
			key = pproffold.Other + ".cpu_s"
		}
		v[key] += float64(ns) / 1e9 / n
	}
	v["profile.cpu_s"] = float64(res.cpu.Total) / 1e9 / n
}
