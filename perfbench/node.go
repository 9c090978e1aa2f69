package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"tango/internal/analytics"
	"tango/internal/cache"
	"tango/internal/container"
	"tango/internal/coordinator"
	"tango/internal/core"
	"tango/internal/device"
	"tango/internal/fault"
	"tango/internal/refactor"
	"tango/internal/resil"
	"tango/internal/staging"
	"tango/internal/tokenctl"
	"tango/internal/trace"
	"tango/internal/workload"
)

// Node workload inputs: the paper's scenario (§IV-A), a 513×513 field
// per application, decimation ratio 16, the NRMSE ladder 1e-1..1e-4 and
// a 60 s step, with a 1 GB staged dataset per session (at 2 GB three
// sessions overrun their period under the six writers). The seed drives
// the field data (and, with faults, the fault plan); the checkpoint
// writers are Table IV's as they are, jitter streams included.
const (
	nodeGrid     = 513
	nodeBound    = 0.01
	nodeDataMB   = 1024
	faultsDataMB = 768 // the faulted node's overruns add up to lag that a longer run cannot absorb
	nodePeriod   = 60.0
	nodeWarmup   = 30     // leading steps per session left out of io_p50_s/io_p99_s
	faultWindow  = 3600.0 // simulated seconds covered by one generated fault plan
	faultEvery   = 3      // one window of faults in this many, the rest quiet
	faultCacheMB = 256    // per-session cache, below each session's augmentation working set
)

var nodeBounds = []float64{1e-1, 1e-2, 1e-3, 1e-4}

// nodeApps are the three sessions: the paper's applications with the
// high, medium and low priorities.
var nodeApps = []struct {
	app      func() analytics.App
	priority float64
}{
	{analytics.XGCApp, 10},
	{analytics.GenASiSApp, 5},
	{analytics.CFDApp, 1},
}

// nodeEpisode is one simulated node: three sessions against the Table IV
// checkpoint writers on the HDD, plus, with faults, the cache, resil,
// token buckets and a fault plan.
type nodeEpisode struct {
	faults   bool
	steps    int
	node     *container.Node
	hier     []*refactor.Hierarchy
	mandCur  []int // cursor of the prescribed bound, per session
	sessions []*core.Session
	noise    map[string]*workload.Handle

	rc       *resil.Controller
	tokens   *tokenctl.Controller
	injector *fault.Injector
	faultEvs []trace.Event // fault and recovery events, for fault.Unpaired

	spawned  int        // procs spawned, counted by the engine trace hook
	chunkNS  [4]int64   // host time of each quarter of the steps' span
	chunkEnd [4]float64 // simulated end of each quarter
}

// setupNode builds a node episode: field synthesis, decomposition,
// staging and session construction.
func setupNode(seed int64, steps int, faults bool, sp *spanLog, parent int) (*nodeEpisode, error) {
	ep := &nodeEpisode{faults: faults, steps: steps}
	for i, a := range nodeApps {
		app := a.app()
		id := sp.begin("synth.generate", parent)
		field := app.Generate(nodeGrid, seed*10+int64(i))
		sp.end(id)
		id = sp.begin("refactor.decompose", parent)
		h, err := refactor.Decompose(field, refactor.Options{
			Levels: refactor.LevelsForRatio(16, 2, 2),
			Bounds: nodeBounds,
		})
		sp.end(id)
		if err != nil {
			return nil, fmt.Errorf("decomposing %s: %w", app.Name, err)
		}
		cur, err := h.CursorForBound(nodeBound)
		if err != nil {
			return nil, err
		}
		ep.hier = append(ep.hier, h)
		ep.mandCur = append(ep.mandCur, cur)
	}

	ep.node = container.NewNode("node0")
	eng := ep.node.Engine()
	if sp != nil {
		eng.SetTrace(func(_ float64, msg string) {
			if strings.HasPrefix(msg, "spawn ") {
				ep.spawned++
			}
		})
	}
	if faults {
		// The cache lives on the fastest tier and caches every level
		// homed elsewhere. Behind an NVMe tier, the SSD and HDD levels
		// compete for it, so a full cache evicts; on the two-tier node
		// only the HDD level is cacheable and nothing is ever evicted.
		ep.node.MustAddDevice(device.NVMe("nvme"))
	}
	ep.node.MustAddDevice(device.SSD("ssd"))
	hdd := ep.node.MustAddDevice(device.HDD("hdd"))
	ep.noise = workload.LaunchNoiseSetControlled(ep.node, hdd, workload.PaperNoiseSet())

	var rec *trace.Recorder
	var alloc *coordinator.Allocator
	if faults {
		rec = trace.New(0)
		rec.Subscribe(func(ev trace.Event) {
			switch ev.Kind {
			case trace.KindFault, trace.KindRecover, trace.KindRefit,
				trace.KindAttempt, trace.KindBreaker, trace.KindHedge, trace.KindBudget:
				ep.faultEvs = append(ep.faultEvs, ev)
			}
		})
		ep.rc = resil.New(eng, resil.Options{Trace: rec, Hedge: resil.HedgeConfig{Enabled: true}})
		ep.tokens = tokenctl.New(eng.Now, tokenctl.Options{})
		ep.tokens.SetTrace(rec)
		plan, err := nodeFaultPlan(seed, steps)
		if err != nil {
			return nil, err
		}
		ep.injector = fault.NewInjector(ep.node, rec, plan)
		ep.injector.RegisterNoise(ep.noise)
		if err := ep.injector.Arm(); err != nil {
			return nil, err
		}
	} else {
		alloc = coordinator.New()
	}

	for i, a := range nodeApps {
		h := ep.hier[i]
		id := sp.begin("staging.stage", parent)
		dataMB := float64(nodeDataMB)
		if faults {
			dataMB = faultsDataMB
		}
		scale := math.Max(1, dataMB*device.MB/float64(h.BaseBytes()+h.TotalAugBytes()))
		store, err := staging.StageScaled(h, ep.node.Tiers(), scale)
		sp.end(id)
		if err != nil {
			return nil, err
		}
		name := a.app().Name
		cfg := core.Config{
			Policy: core.CrossLayer, ErrorControl: true, Bound: nodeBound,
			Priority: a.priority, Steps: steps, Period: nodePeriod,
			Allocator: alloc, Trace: rec,
		}
		if faults {
			cfg.Policy = core.CrossLayerPrefetch
			cc := cache.DefaultConfig()
			cc.CapacityMB = faultCacheMB
			cc.Trace, cc.Source = rec, name
			cfg.Cache = &cc
			cfg.Resil = ep.rc
			cfg.Tokens = ep.tokens
		}
		id = sp.begin("core.new_session", parent)
		sess, err := core.NewSession(name, store, cfg)
		if err == nil {
			err = sess.Launch(ep.node)
		}
		sp.end(id)
		if err != nil {
			return nil, fmt.Errorf("session %s: %w", name, err)
		}
		ep.sessions = append(ep.sessions, sess)
	}
	return ep, nil
}

// nodeFaultPlan tiles one-hour fault windows over every faultEvery-th
// hour of the run. Each window carries one fault of every device and
// cgroup kind (the cgroup faults target one session) and one interferer
// that joins, changes its period and leaves again within the window, so
// the interferer population stays bounded however long the run is. The
// windows come from a fixed deck of generated plans that the seed
// shuffles: every seed meets the same faults, in its own order.
func nodeFaultPlan(seed int64, steps int) (*fault.Plan, error) {
	slots := int(float64(steps)*nodePeriod/faultWindow) / faultEvery
	deck := rand.New(rand.NewSource(seed)).Perm(slots)
	plan := &fault.Plan{}
	for slot, card := range deck {
		off := float64(slot*faultEvery) * faultWindow
		wp, err := fault.Generate(int64(card)+1, fault.GenerateOptions{
			Horizon: faultWindow,
			Device:  "hdd",
			Cgroup:  nodeApps[card%len(nodeApps)].app().Name,
			Events:  7,
		})
		if err != nil {
			return nil, err
		}
		for _, ev := range wp.Events {
			ev.At += off
			if ev.Kind != fault.Join {
				plan.Events = append(plan.Events, ev)
				continue
			}
			name := fmt.Sprintf("chaos%d", slot)
			ev.Target, ev.Noise.Name = name, name
			plan.Events = append(plan.Events, ev,
				fault.Event{At: ev.At + 0.04*faultWindow, Kind: fault.PeriodChange, Target: name, Factor: 1.5 * ev.Noise.Period},
				fault.Event{At: ev.At + 0.1*faultWindow, Kind: fault.Leave, Target: name},
			)
		}
	}
	return plan, plan.Validate()
}

// horizon is the simulated time every session must finish by.
func (ep *nodeEpisode) horizon() float64 { return float64(ep.steps)*nodePeriod + 3600 }

// run drives the engine to the horizon in four quarters of the steps'
// span plus the tail, timing each quarter on the host clock.
func (ep *nodeEpisode) run(sp *spanLog, parent int) error {
	eng := ep.node.Engine()
	id := sp.begin("sim.run", parent)
	defer sp.end(id)
	span := float64(ep.steps) * nodePeriod
	for q := range ep.chunkNS {
		ep.chunkEnd[q] = span * float64(q+1) / 4
		t0 := time.Now()
		if err := eng.Run(ep.chunkEnd[q]); err != nil {
			return err
		}
		ep.chunkNS[q] = time.Since(t0).Nanoseconds()
	}
	return eng.Run(ep.horizon())
}

// collect checks the episode and reads every simulated output.
func (ep *nodeEpisode) collect(out *episodeReport) digest {
	var d digest
	out.Layer = map[string]float64{}
	eng := ep.node.Engine()
	simEnd := float64(ep.steps) * nodePeriod

	var ioTimes, predErr []float64
	var bytes, baseT, ioT, dof float64
	var stepsQ [4]int
	var nSteps, retries, degraded int
	for i, s := range ep.sessions {
		stats := s.Stats()
		out.Attempted += ep.steps
		if len(stats) != ep.steps {
			out.Failed += ep.steps - len(stats)
			out.Gate = append(out.Gate, fmt.Sprintf("session %s finished %d of %d steps within the horizon", s.Name, len(stats), ep.steps))
		}
		for _, st := range stats {
			d.stepStats(st)
			nSteps++
			if st.Cursor < ep.mandCur[i] {
				out.Failed++
			}
			if st.Step >= nodeWarmup {
				ioTimes = append(ioTimes, st.IOTime)
			}
			if st.Predicted > 0 && st.SlowBW > 0 {
				predErr = append(predErr, math.Abs(st.Predicted-st.SlowBW)/st.SlowBW)
			}
			bytes += st.Bytes
			baseT += st.BaseTime
			ioT += st.IOTime
			dof += ep.hier[i].DoFFraction(st.Cursor)
			retries += st.Retries
			if st.Degraded {
				degraded++
			}
			for q := range stepsQ {
				if st.Start < ep.chunkEnd[q] {
					stepsQ[q]++
					break
				}
			}
		}
	}
	out.Steps = nSteps
	out.AggMBps = bytes / device.MB / simEnd
	out.StepUS = [2]float64{
		perStepUS(ep.chunkNS[0], stepsQ[0]),
		perStepUS(ep.chunkNS[3], stepsQ[3]),
	}
	sort.Float64s(ioTimes)
	L := out.Layer
	L["io_p50_s"] = quantile(ioTimes, 0.50)
	L["io_p99_s"] = quantile(ioTimes, 0.99)
	L["io_samples"] = float64(len(ioTimes))
	L["core.dof_frac_mean"] = dof / float64(max(nSteps, 1))
	L["core.mb_per_step"] = bytes / device.MB / float64(max(nSteps, 1))
	L["core.base_time_frac"] = baseT / math.Max(ioT, 1e-300)
	L["core.retries"] = float64(retries)
	L["core.degraded_steps"] = float64(degraded)
	sort.Float64s(predErr)
	L["dftestim.pred_rel_err_p50"] = quantile(predErr, 0.5)

	for _, name := range []string{"nvme", "ssd", "hdd"} {
		dev := ep.node.Device(name)
		if dev == nil {
			continue
		}
		L["device."+name+".busy_frac"] = dev.BusyTime() / eng.Now()
		L["device."+name+".active_flows_end"] = float64(dev.ActiveFlows())
	}
	L["sim.live_procs_end"] = float64(eng.LiveProcs())
	L["sim.procs_spawned"] = float64(ep.spawned)

	var sessRead, noiseWrite float64
	cgs := ep.node.Cgroups()
	for _, s := range ep.sessions {
		sessRead += cgs.Lookup(s.Name).BytesRead()
	}
	for _, name := range cgs.Names() {
		if strings.HasPrefix(name, "noise") || strings.HasPrefix(name, "chaos") {
			noiseWrite += cgs.Lookup(name).BytesWritten()
		}
	}
	L["blkio.session_read_mb"] = sessRead / device.MB
	L["blkio.noise_write_mb"] = noiseWrite / device.MB

	if ep.faults {
		var hits, misses int
		var evicted, staged float64
		for _, s := range ep.sessions {
			cs := s.Cache().Stats()
			hits += cs.Hits
			misses += cs.Misses
			evicted += cs.EvictedBytes
			staged += cs.StagedBytes
		}
		L["cache.hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
		L["cache.evicted_mb"] = evicted / device.MB
		L["cache.staged_mb"] = staged / device.MB
		if evicted == 0 {
			out.Gate = append(out.Gate, "cache.evicted_mb is 0: the cache held the whole working set")
		}
		tot := ep.rc.Totals()
		L["resil.useful_frac"] = float64(tot.Ops) / float64(max(tot.Attempts, 1))
		L["resil.timeouts"] = float64(tot.Timeouts)
		L["resil.hedges"] = float64(tot.Hedges)
		L["resil.wasted_mb"] = tot.WastedBytes / device.MB
		L["resil.breaker_opens"] = float64(tot.BreakerOpens)
		ts := ep.tokens.Stats()
		L["tokenctl.writes"] = float64(ts.Writes)
		L["tokenctl.borrows"] = float64(ts.Borrows)
		L["fault.injected"] = float64(ep.injector.Injected())
		unpaired := len(fault.Unpaired(ep.faultEvs))
		L["fault.unpaired"] = float64(unpaired)
		if unpaired != 0 {
			out.Gate = append(out.Gate, fmt.Sprintf("%d injected faults have no recorded recovery", unpaired))
		}
	}
	return d
}

// drain stops the interferers and runs the engine dry, so no process
// goroutine of this episode outlives it.
func (ep *nodeEpisode) drain() error {
	for _, h := range ep.noise {
		h.Stop()
	}
	eng := ep.node.Engine()
	if err := eng.RunAll(); err != nil {
		return err
	}
	if n := eng.LiveProcs(); n != 0 {
		return fmt.Errorf("%d simulated processes still live after draining", n)
	}
	return nil
}

func perStepUS(ns int64, steps int) float64 {
	if steps == 0 {
		return 0
	}
	return float64(ns) / 1e3 / float64(steps)
}
