// Migration: cross-core load balancing over adaptive reservations —
// the cooperation the paper's Sec. 6 leaves as an open research issue.
//
// A four-core machine boots consolidated: every tenant starts pinned
// on core 0 (the state a suspend/resume or a core-onlining event
// leaves behind). Under -policy none that imbalance is permanent —
// partitioned EDF never revisits placement. Under -policy reactive (the
// default) a sustained imbalance across balance ticks makes the
// coldest core pull the biggest reservation of the hottest; under -policy stealing every cold core claims units in the
// same tick, de-consolidating in one go; under -policy numa the cores
// group into -nodes NUMA nodes and every candidate move is scored by
// gain minus a distance-weighted cost, so the machine de-consolidates
// with as few node crossings as the spread allows. Each migration
// carries the
// CBS server's remaining budget and deadline across schedulers, and
// the tuner re-registers with the destination supervisor — playback
// never stops. Policies are pluggable (selftune.Balancer): the map
// below is just the built-ins.
//
// All measurement flows through selftune/telemetry: a Collector folds
// the observer bus and the migration log, per-core loads and QoS
// render from its snapshot. Pass -trace to dump the recovery phase as
// a Chrome trace-event file and watch the reservations hop cores in
// Perfetto.
//
// The example ends with machine-wide admission: a tenant whose
// bandwidth fits the machine but not any single core is rejected by
// frozen worst-fit placement and admitted once the balancer may
// defragment with one migration.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/report"
	"repro/selftune"
	"repro/selftune/telemetry"
)

func main() {
	var (
		policyName = flag.String("policy", "reactive", "balancer policy: none | reactive | stealing | numa")
		cpus       = flag.Int("cpus", 4, "number of scheduling cores")
		nodes      = flag.Int("nodes", 2, "NUMA nodes the cores group into (1 = flat machine)")
		duration   = flag.Duration("duration", 0, "simulated run time (wall-clock syntax, e.g. 8s)")
		seed       = flag.Uint64("seed", 17, "simulation seed")
		tracePath  = flag.String("trace", "", "export the recovery phase as Chrome trace-event JSON")
	)
	flag.Parse()
	policies := map[string]selftune.Balancer{
		"none":     nil,
		"reactive": selftune.BalanceReactive(),
		"stealing": selftune.BalanceWorkStealing(),
		"numa":     selftune.BalanceTopologyAware(),
	}
	policy, ok := policies[*policyName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policyName)
		os.Exit(2)
	}
	horizon := selftune.Duration(*duration)
	if horizon <= 0 {
		horizon = 8 * selftune.Second
	}
	if *nodes < 1 || *cpus%*nodes != 0 {
		fmt.Fprintf(os.Stderr, "-nodes %d does not divide -cpus %d\n", *nodes, *cpus)
		os.Exit(2)
	}
	// The topology groups the cores into -nodes equal NUMA nodes. Only
	// the "numa" policy prices node crossings, but every run gets the
	// per-domain telemetry (node lanes in the trace, cross-node counter)
	// once more than one node exists.
	topology := selftune.UniformTopology(*cpus, *cpus / *nodes)

	sys, err := selftune.NewSystem(
		selftune.WithSeed(*seed),
		selftune.WithCPUs(*cpus),
		selftune.WithTopology(topology),
		selftune.WithBalancer(policy),
		selftune.WithBalanceInterval(500*selftune.Millisecond),
		selftune.WithBalanceThreshold(0.15),
	)
	if err != nil {
		panic(err)
	}
	col, stop := telemetry.Attach(sys)

	// Consolidated boot: four tuned tenants, all pinned on core 0.
	lean := selftune.DefaultTunerConfig()
	lean.InitialBudget = 2 * selftune.Millisecond
	tenants := make([]*selftune.Handle, 0, 4)
	for i := 0; i < 4; i++ {
		h, err := sys.Spawn("video",
			selftune.SpawnName(fmt.Sprintf("tenant-%c", 'a'+i)),
			selftune.OnCore(0),
			selftune.SpawnHint(0.20),
			selftune.SpawnUtil(0.15),
			selftune.Tuned(lean))
		if err != nil {
			panic(err)
		}
		h.Start(0)
		tenants = append(tenants, h)
	}

	fmt.Printf("recovery phase: policy=%s cpus=%d nodes=%d, all tenants booted on core 0\n\n",
		*policyName, sys.CPUs(), sys.Topology().NumDomains())
	sys.Run(horizon)
	stop()
	snap := col.Snapshot()

	renderMigrations(snap)
	qos := report.NewTable("tenant QoS after recovery", "tenant", "core", "frames", "missed")
	for _, h := range tenants {
		st := h.Player().Task().Stats()
		qos.AddRowf(h.Name(), h.Core().Index, st.Completed, st.Missed)
	}
	qos.Render(os.Stdout)
	for _, t := range snap.Tables() {
		t.Render(os.Stdout)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			panic(err)
		}
		if err := snap.WriteTrace(f); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
		fmt.Printf("recovery-phase trace written to %s (open in chrome://tracing or Perfetto)\n", *tracePath)
	}

	// Machine-wide admission, on a fresh machine driven into
	// fragmentation: worst-fit leaves every core but the last at 0.85
	// of placement hints and the last at 0.45, so a late 0.50 tenant
	// fits the machine's total slack but no single core. Under
	// -policy none that tenant is rejected; any balancing policy
	// defragments with one migration before giving up.
	frag, err := selftune.NewSystem(
		selftune.WithSeed(*seed+1),
		selftune.WithCPUs(*cpus),
		selftune.WithTopology(topology),
		selftune.WithULub(0.90),
		selftune.WithBalancer(policy),
	)
	if err != nil {
		panic(err)
	}
	fragCol, fragStop := telemetry.Attach(frag)
	hints := make([]float64, 0, 2**cpus)
	for i := 0; i < *cpus; i++ {
		hints = append(hints, 0.45)
	}
	for i := 0; i < *cpus-1; i++ {
		hints = append(hints, 0.40)
	}
	for i, hint := range hints {
		h, err := frag.Spawn("video",
			selftune.SpawnName(fmt.Sprintf("base-%02d", i)),
			selftune.SpawnHint(hint),
			selftune.SpawnUtil(0.10),
			selftune.Tuned(selftune.DefaultTunerConfig()))
		if err != nil {
			panic(err)
		}
		h.Start(0)
	}
	fmt.Println("\nadmission phase: fragmented machine, late 0.50 tenant arriving")
	late, lateErr := frag.Spawn("video",
		selftune.SpawnName("late-big"),
		selftune.SpawnHint(0.50),
		selftune.SpawnUtil(0.10),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if lateErr == nil {
		late.Start(frag.Now())
	}
	frag.Run(2 * selftune.Second)
	fragStop()
	fragSnap := fragCol.Snapshot()

	renderMigrations(fragSnap)
	outcome := report.NewTable("machine-wide admission", "quantity", "value")
	if lateErr != nil {
		outcome.AddRowf("late 0.50 tenant", fmt.Sprintf("rejected: %v", lateErr))
		outcome.AddNote("re-run with -policy reactive: one migration makes room")
	} else {
		outcome.AddRowf("late 0.50 tenant",
			fmt.Sprintf("admitted on core %d, frames=%d", late.Core().Index, late.Player().Frames()))
	}
	outcome.AddRowf("admission rejects on the bus", fragSnap.Rejects)
	outcome.Render(os.Stdout)
	for _, t := range fragSnap.Tables() {
		t.Render(os.Stdout)
	}
}

// renderMigrations prints the snapshot's migration log as a table.
func renderMigrations(snap telemetry.Snapshot) {
	t := report.NewTable("migration log", "time", "workload", "from", "to", "reason")
	for _, mv := range snap.Moves {
		t.AddRowf(mv.At.String(), mv.Source, mv.From, mv.To, mv.Reason)
	}
	if len(snap.Moves) == 0 {
		t.AddNote("no migrations happened")
	}
	t.Render(os.Stdout)
}
