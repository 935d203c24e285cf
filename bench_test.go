// Package repro's top-level benchmarks regenerate every table and
// figure of the paper's evaluation in reduced form, one testing.B per
// experiment, and report the headline quantity of each as a custom
// metric. Run the full-size versions with cmd/experiments.
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/ktrace"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/selftune"
	"repro/selftune/cluster"
)

func BenchmarkFig1MinBandwidthSingle(b *testing.B) {
	var last experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig1()
	}
	b.ReportMetric(last.AtTaskPeriod, "B(T=P)")
	b.ReportMetric(last.AtT200, "B(T=200ms)")
}

func BenchmarkFig2MinBandwidthMulti(b *testing.B) {
	var last experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig2()
	}
	b.ReportMetric(last.BestWaste, "bestWaste")
	b.ReportMetric(last.WorstWaste, "worstWaste")
}

func BenchmarkTable1TracerOverhead(b *testing.B) {
	var last experiments.Table1Result
	for i := 0; i < b.N; i++ {
		last = experiments.Table1(uint64(i+1), 2)
	}
	for _, row := range last.Rows {
		if row.Tracer != ktrace.NoTrace {
			b.ReportMetric(row.RelOverhead*100, row.Tracer.String()+"_pct")
		}
	}
}

func BenchmarkFig4SyscallHistogram(b *testing.B) {
	var last experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig4(uint64(i+1), 10*simtime.Second)
	}
	b.ReportMetric(float64(last.Total), "events")
}

func BenchmarkFig5EventTrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(uint64(i + 1))
	}
}

func BenchmarkFig6Transform(b *testing.B) {
	var last experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig6(uint64(i+1), 2)
	}
	b.ReportMetric(last.OpsFitR2[0.1], "R2_ops_vs_H")
}

func BenchmarkFig7Transform(b *testing.B) {
	var last experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig7(uint64(i+1), 2)
	}
	b.ReportMetric(last.StdAt400, "stdHz_at_fmax400")
}

func BenchmarkFig8PeakDetect(b *testing.B) {
	var last experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig8(uint64(i+1), 2)
	}
	b.ReportMetric(last.SpeedupFromAlpha, "alpha_speedup_x")
}

func BenchmarkFig9EpsilonSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(uint64(i+1), 2)
	}
}

func BenchmarkFig10SpectraVsTracingTime(b *testing.B) {
	var last experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig10(uint64(i + 1))
	}
	b.ReportMetric(last.PeakSharpness[4000], "peak_to_mean_4s")
}

func BenchmarkFig11DetectionPMF(b *testing.B) {
	var last experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig11(uint64(i+1), 10)
	}
	b.ReportMetric(last.LongHit*100, "hit_pct_H2s")
}

func BenchmarkTable2LoadTolerance(b *testing.B) {
	var last experiments.Table2Result
	for i := 0; i < b.N; i++ {
		last = experiments.Table2(uint64(i+1), 10, simtime.Second)
	}
	b.ReportMetric(last.Rows[len(last.Rows)-1].FreqMean, "meanHz_at_60pct")
}

func BenchmarkFig13Feedback(b *testing.B) {
	var last experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig13(uint64(i+1), 500)
	}
	b.ReportMetric(last.LFSStats.Std, "lfs_ift_std_ms")
	b.ReportMetric(last.LFSPStats.Std, "lfspp_ift_std_ms")
}

func BenchmarkFig14CDFs(b *testing.B) {
	var last experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig14(uint64(i+1), 500)
	}
	b.ReportMetric(last.LFSTail, "lfs_tail")
	b.ReportMetric(last.LFSPTail, "lfspp_tail")
}

func BenchmarkTable3LoadedFeedback(b *testing.B) {
	var last experiments.Table3Result
	for i := 0; i < b.N; i++ {
		last = experiments.Table3(uint64(i+1), 300)
	}
	b.ReportMetric(last.Rows[len(last.Rows)-1].MeanMS, "meanIFT_at_70pct")
}

func BenchmarkAblationPredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationPredictor(uint64(i+1), 300)
	}
}

func BenchmarkAblationSpread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationSpread(uint64(i+1), 300)
	}
}

func BenchmarkAblationSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationSampling(uint64(i+1), 300)
	}
}

func BenchmarkAblationCBSMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationCBSMode(uint64(i+1), 300)
	}
}

func BenchmarkAblationStateTrace(b *testing.B) {
	var last experiments.StateTraceResult
	for i := 0; i < b.N; i++ {
		last = experiments.AblationStateTrace(uint64(i+1), 5, simtime.Second)
	}
	b.ReportMetric(last.Rows[len(last.Rows)-1].StateMean, "stateHz_at_60pct")
}

func BenchmarkAblationScoring(b *testing.B) {
	var last experiments.ScoringResult
	for i := 0; i < b.N; i++ {
		last = experiments.AblationScoring(uint64(i+1), 8)
	}
	b.ReportMetric(last.Rows[0].Exact, "wm_clean_exact")
}

func BenchmarkMigrationContention8Core(b *testing.B) {
	var last experiments.MigrationResult
	for i := 0; i < b.N; i++ {
		last = experiments.MigrationContention(uint64(i+1), 8, 2*simtime.Second)
	}
	b.ReportMetric(float64(last.AdmittedStatic), "admitted_static")
	b.ReportMetric(float64(last.AdmittedRebalance), "admitted_rebalance")
	b.ReportMetric(float64(last.AdmissionMigrations+last.RecoveryMigrations), "migrations")
	b.ReportMetric(last.RecoverySpreadEnd, "spread_after")
}

// BenchmarkMigrationContention64Core scales the contention study to a
// 64-core machine: 128 fragmenting spawns in the admission phase and
// 62 consolidated tenants spreading off core 0 in the recovery phase.
func BenchmarkMigrationContention64Core(b *testing.B) {
	var last experiments.MigrationResult
	for i := 0; i < b.N; i++ {
		last = experiments.MigrationContention(uint64(i+1), 64, 2*simtime.Second)
	}
	b.ReportMetric(float64(last.AdmittedStatic), "admitted_static")
	b.ReportMetric(float64(last.AdmittedRebalance), "admitted_rebalance")
	b.ReportMetric(float64(last.AdmissionMigrations+last.RecoveryMigrations), "migrations")
	b.ReportMetric(last.RecoverySpreadEnd, "spread_after")
}

// BenchmarkNUMAContention64Core prices migrations on a 4×16-core NUMA
// machine: the per-node consolidated boot recovered by plain
// work-stealing versus the topology-aware cost-based policy. The
// headline metrics are the final recovery spread, the migration
// count, and the fraction of moves that crossed a node boundary —
// topology-aware must cut cross-node traffic at a comparable spread.
func BenchmarkNUMAContention64Core(b *testing.B) {
	var last experiments.NUMAResult
	for i := 0; i < b.N; i++ {
		last = experiments.NUMAContention(uint64(i+1), 4, 16, 2*simtime.Second)
	}
	b.ReportMetric(last.Topo.SpreadEnd, "spread_after")
	b.ReportMetric(float64(last.Topo.Migrations), "migrations")
	b.ReportMetric(last.Topo.CrossNodeFraction, "xnode_frac")
	b.ReportMetric(last.WorkStealing.SpreadEnd, "spread_after_steal")
	b.ReportMetric(last.WorkStealing.CrossNodeFraction, "xnode_frac_steal")
}

// BenchmarkClusterContention runs the fleet surge study in reduced
// form (24 machines x 16 cores, 4 realms) with the autoscaler on and
// reports the headline qualities of the adaptive run: the admission
// reject fraction, the cross-realm unfairness (1 - Jain index over
// admitted fractions) and the p99 request latency on the detail
// machine, all lower-is-better and gated in CI, plus the static
// baseline's reject fraction for contrast and the simulation
// throughput in events per wall second.
func BenchmarkClusterContention(b *testing.B) {
	var last experiments.ClusterResult
	for i := 0; i < b.N; i++ {
		last = experiments.ClusterContention(uint64(i+1), 24, 16, 4, 12*simtime.Second, 0)
	}
	b.ReportMetric(last.Auto.RejectFraction, "reject_frac")
	b.ReportMetric(last.Auto.Unfairness, "unfairness")
	b.ReportMetric(last.Auto.LatencyP99.Milliseconds(), "p99_ms")
	b.ReportMetric(last.Static.RejectFraction, "reject_frac_static")
	b.ReportMetric(last.Auto.EventsPerSecond(), "events_per_s")
}

// BenchmarkSLOAwareFleet runs the live-migration rescue study at its
// headline size (4 machines x 8 cores, fully detailed) and reports
// the SLO-aware run's tardy-realm p99 (lower-is-better, gated in CI)
// and the fraction of re-placements that ran as live transfers
// (higher-is-better, gated — the scenario's webserver jobs must all
// carry their state across), plus the hint-blind baseline's p99 for
// contrast and the attainment the rescue bought.
func BenchmarkSLOAwareFleet(b *testing.B) {
	var last experiments.SLOAwareResult
	for i := 0; i < b.N; i++ {
		last = experiments.SLOAwareFleet(uint64(i+1), 4, 8, 12*simtime.Second, 0)
	}
	b.ReportMetric(float64(last.SLOAware.TardyP99)/1e6, "tardy_p99_ms")
	b.ReportMetric(last.SLOAware.LiveFraction(), "live_frac")
	b.ReportMetric(last.SLOAware.TardyAttainment, "attainment")
	b.ReportMetric(float64(last.Static.TardyP99)/1e6, "tardy_p99_static_ms")
}

// BenchmarkEngineHotPath times the pooled discrete-event core on its
// steady state: 64 self-rescheduling event trains, each tick also
// scheduling and cancelling a victim so every step exercises the full
// pool cycle (get, fire or cancel, release) plus a heap remove. Each
// iteration is a fixed batch of steps so the events_per_s metric is
// meaningful even under -benchtime=1x; CI gates its median over 20
// runs against the parent commit's.
func BenchmarkEngineHotPath(b *testing.B) {
	e := sim.New()
	const trains = 64
	for i := 0; i < trains; i++ {
		period := simtime.Duration(i+1) * simtime.Microsecond
		var tick func()
		tick = func() {
			e.After(period, tick)
			e.Cancel(e.After(2*period, func() {}))
		}
		e.After(period, tick)
	}
	const batch = 1 << 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < batch; k++ {
			e.Step()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "events_per_s")
	b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*batch), "ns_per_event")
}

// parallelFleet builds the fully detailed 8-machine fleet the parallel
// tick benchmark advances: every machine runs its workloads at event
// fidelity, so the per-tick engine work dominates and the worker pool
// has something to win.
func parallelFleet(b *testing.B, parallel int) *cluster.Cluster {
	b.Helper()
	c, err := cluster.New(
		cluster.WithSeed(11),
		cluster.WithMachines(8),
		cluster.WithCores(8),
		cluster.WithDetail(8),
		cluster.WithParallelism(parallel),
	)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.AddRealm(cluster.RealmConfig{
		Name: "load", Reservation: 48, Rate: 60, QueueCap: 64,
		Mix: []cluster.WorkloadSpec{
			{Kind: "webserver", Hint: 0.3, Service: cluster.Exp(1500 * selftune.Millisecond), Weight: 2},
			{Kind: "rtload", Hint: 0.25, Util: 0.25, Service: cluster.Exp(1200 * selftune.Millisecond)},
		},
	}); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkClusterParallelTicks measures what WithParallelism buys on
// a fleet of eight fully detailed machines: each iteration advances
// the same seeded scenario by half a simulated second at GOMAXPROCS
// workers, reporting events per wall second and the simulation-time
// speed. After the timed run, the identical scenario replays serially
// over the same horizon; speedup_x is the ratio of the two
// throughputs. CI gates the medians of both over 20 runs against the
// parent commit's. speedup_x depends on the runner's core count; on
// two CPUs single runs have read below 1.
func BenchmarkClusterParallelTicks(b *testing.B) {
	const (
		warmup = 2 * selftune.Second // fill the fleet with residents first
		step   = 2 * selftune.Second
	)
	c := parallelFleet(b, runtime.GOMAXPROCS(0))
	defer c.Close()
	c.Run(warmup)
	warmSteps := c.Steps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(step)
	}
	b.StopTimer()
	wall := b.Elapsed().Seconds()
	events := float64(c.Steps() - warmSteps)
	simSec := float64(c.Now()-selftune.Time(warmup)) / float64(selftune.Second)
	b.ReportMetric(events/wall, "events_per_s")
	b.ReportMetric(simSec/wall, "sim_s_per_wall_s")

	// Serial replay of the identical scenario over the same horizon
	// (warmup untimed on both sides). Equal steps double-checks the
	// determinism contract; the ratio prices the worker pool.
	serial := parallelFleet(b, 1)
	defer serial.Close()
	serial.Run(warmup)
	start := time.Now()
	serial.Run(selftune.Duration(c.Now()) - warmup)
	serialWall := time.Since(start).Seconds()
	if serial.Steps() != c.Steps() {
		b.Fatalf("serial replay diverged: %d vs %d steps", serial.Steps(), c.Steps())
	}
	if wall > 0 && serialWall > 0 {
		b.ReportMetric(serialWall/wall, "speedup_x")
	}
}

// coreParallelMachine builds the 64-core densely loaded machine the
// core-parallel benchmark advances: one rtload reservation per core
// plus a webserver per four cores, no balancer and no observers. With
// the control engine idle between Run horizons the laned build never
// fences — the measured contrast is the sharding itself. workers > 0
// selects laned mode (WithCoreParallelism); 0 the single-engine path.
func coreParallelMachine(b *testing.B, workers int) *selftune.System {
	b.Helper()
	opts := []selftune.Option{selftune.WithSeed(23), selftune.WithCPUs(64)}
	if workers > 0 {
		opts = append(opts, selftune.WithCoreParallelism(workers))
	}
	sys, err := selftune.NewSystem(opts...)
	if err != nil {
		b.Fatal(err)
	}
	spawn := func(kind string, i int, sopts ...selftune.SpawnOption) {
		h, err := sys.Spawn(kind, append([]selftune.SpawnOption{
			selftune.SpawnName(fmt.Sprintf("%s%d", kind, i)),
			selftune.OnCore(i),
		}, sopts...)...)
		if err != nil {
			b.Fatal(err)
		}
		h.Start(0)
	}
	for i := 0; i < 64; i++ {
		spawn("rtload", i, selftune.SpawnUtil(0.35))
	}
	for i := 0; i < 64; i += 4 {
		spawn("webserver", i, selftune.SpawnUtil(0.2))
	}
	return sys
}

// BenchmarkCoreParallelMachine measures what WithCoreParallelism buys
// on one 64-core machine under dense load: each iteration advances the
// seeded scenario by a simulated second on per-core engine lanes
// (GOMAXPROCS workers), then the identical scenario replays on the
// single-engine path over the same horizon. speedup_x is the
// throughput ratio. The sharding is meant to pay even on a small
// runner — 64 shallow per-lane heaps against one 64x-denser heap on
// every sift; each run's value is a single sample, and CI gates the
// medians of both metrics over 20 runs against the parent commit's.
func BenchmarkCoreParallelMachine(b *testing.B) {
	const (
		warmup = 1 * selftune.Second
		step   = 1 * selftune.Second
	)
	sys := coreParallelMachine(b, runtime.GOMAXPROCS(0))
	defer sys.Close()
	sys.Run(warmup)
	warmSteps := sys.Steps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(step)
	}
	b.StopTimer()
	wall := b.Elapsed().Seconds()
	events := float64(sys.Steps() - warmSteps)
	b.ReportMetric(events/wall, "events_per_s")

	// Single-engine replay of the identical scenario over the same
	// horizon (warmup untimed on both sides). Equal step counts
	// double-check that laned mode simulates the same events; the
	// ratio prices the sharding.
	serial := coreParallelMachine(b, 0)
	defer serial.Close()
	serial.Run(warmup)
	start := time.Now()
	serial.Run(selftune.Duration(sys.Now()) - warmup)
	serialWall := time.Since(start).Seconds()
	if serial.Steps() != sys.Steps() {
		b.Fatalf("single-engine replay diverged: %d vs %d steps", serial.Steps(), sys.Steps())
	}
	if wall > 0 && serialWall > 0 {
		b.ReportMetric(serialWall/wall, "speedup_x")
	}
}

// BenchmarkTelemetryScenario times the full measurement pipeline —
// collector folding plus both exporters — on the 4-core showcase.
func BenchmarkTelemetryScenario(b *testing.B) {
	var last experiments.TelemetryResult
	for i := 0; i < b.N; i++ {
		last = experiments.TelemetryScenario(uint64(i+1), 4, 4*simtime.Second)
	}
	b.ReportMetric(float64(last.Snapshot.Ticks), "ticks")
	b.ReportMetric(float64(last.Snapshot.Migrations), "migrations")
	b.ReportMetric(float64(last.Snapshot.Exhaustions), "exhaustions")
}

func BenchmarkAblationDenseGrid(b *testing.B) {
	var last experiments.DenseGridResult
	for i := 0; i < b.N; i++ {
		last = experiments.AblationDenseGrid(uint64(i + 1))
	}
	b.ReportMetric(float64(last.SparseOps), "sparse_ops")
}
