package main

import (
	"fmt"
	"math/rand"

	"tango/internal/fault"
	"tango/internal/fleet"
	"tango/internal/objstore"
	"tango/internal/tokenctl"
)

// Fleet workload inputs: 200 nodes and 100 sessions per node under
// central control. The shared egress is cut to half the default (8:1
// against the node frontends), so that its water-filling grants bind in
// the cold-start epochs, and node kills force placement and migration
// work. A deeper cut makes steps overrun and skip (README.md).
const (
	fleetNodes    = 200
	fleetSessions = 20000
	fleetEpochSec = 60.0
	fleetKills    = 6
	egressCut     = 2
)

// fleetEpisode is one cluster run.
type fleetEpisode struct {
	cfg fleet.Config
	c   *fleet.Cluster
	rep *fleet.Report
}

// setupFleet builds the cluster: session generation, placement and
// every node's stack.
func setupFleet(seed int64, epochs int, sp *spanLog, parent int) (*fleetEpisode, error) {
	store := objstore.Default(fleetNodes)
	store.TotalEgress /= egressCut
	plan, err := fleetKillPlan(seed, epochs)
	if err != nil {
		return nil, err
	}
	ep := &fleetEpisode{cfg: fleet.Config{
		Nodes: fleetNodes, Sessions: fleetSessions, Seed: seed,
		EpochSec: fleetEpochSec, Epochs: epochs,
		Store: store, Plan: plan, Control: tokenctl.ModeCentral,
	}}
	id := sp.begin("fleet.new", parent)
	ep.c, err = fleet.New(ep.cfg)
	sp.end(id)
	return ep, err
}

// fleetKillPlan takes fleetKills seed-chosen distinct nodes out for two
// epochs each, half at epoch 3 and half at epoch 6, so that each batch
// is back, with its sessions migrated home, before the next goes down.
func fleetKillPlan(seed int64, epochs int) (*fault.Plan, error) {
	rng := rand.New(rand.NewSource(seed))
	plan := &fault.Plan{}
	for i, n := range rng.Perm(fleetNodes)[:fleetKills] {
		at := float64(3+3*(i%2)) * fleetEpochSec
		plan.Events = append(plan.Events, fault.Event{
			At: at, Kind: fault.NodeKill, Target: fmt.Sprintf("node%d", n),
			Duration: 2 * fleetEpochSec,
		})
	}
	return plan, plan.Validate()
}

func (ep *fleetEpisode) run(sp *spanLog, parent int) error {
	id := sp.begin("fleet.run", parent)
	defer sp.end(id)
	var err error
	ep.rep, err = ep.c.Run()
	return err
}

// collect checks the cluster report and reads every simulated output.
func (ep *fleetEpisode) collect(out *episodeReport) digest {
	r, cfg := ep.rep, ep.cfg
	var d digest
	out.Layer = map[string]float64{}
	for _, v := range []int{r.Nodes, r.Sessions, r.Epochs, r.Violations, r.ViolNodes, r.SkippedSteps,
		r.Migrations, r.Kills, r.Store.Requests, r.Tokens.Borrows, r.Tokens.Repays, r.Tokens.Recalls, r.Tokens.Writes} {
		d.int(v)
	}
	for _, v := range append(append([]float64(nil), r.EpochMBps...),
		r.AggMBps, r.Store.EgressBytes, r.Store.IngressBytes, r.StoreCost, r.RecoveryFrac) {
		d.f64(v)
	}

	// Every session has one step per epoch. A step fails when it was
	// skipped (its previous step still ran) or overran its period.
	out.Attempted = cfg.Sessions * cfg.Epochs
	out.Failed = r.Violations + r.SkippedSteps
	out.Steps = out.Attempted - r.SkippedSteps
	out.AggMBps = r.AggMBps

	simTime := float64(cfg.Epochs) * cfg.EpochSec
	if limit := cfg.Store.TotalEgress * simTime; r.Store.EgressBytes > limit*(1+1e-9) {
		out.Gate = append(out.Gate, fmt.Sprintf("egress %.0f B exceeds TotalEgress × simulated time = %.0f B", r.Store.EgressBytes, limit))
	}
	if r.Kills != fleetKills {
		out.Gate = append(out.Gate, fmt.Sprintf("%d of %d planned node kills happened", r.Kills, fleetKills))
	}
	L := out.Layer
	L["fleet.migrations"] = float64(r.Migrations)
	L["fleet.violations"] = float64(r.Violations)
	L["fleet.skipped_steps"] = float64(r.SkippedSteps)
	L["objstore.egress_gb"] = r.Store.EgressBytes / (1 << 30)
	L["objstore.requests"] = float64(r.Store.Requests)
	return d
}

// drain is a no-op: Cluster.Run already wakes its parked step procs.
func (ep *fleetEpisode) drain() error { return nil }
