// Cluster: tenant realms share a fleet of self-tuning machines. Each
// realm holds a capacity reservation sliced across the fleet and an
// open-loop Poisson arrival stream over registered workload kinds
// (including heavy-tailed VM boots); a front-end queue manager admits,
// queues or rejects arrivals; a fleet balancer re-places jobs across
// machines; and the autoscaler grows a surging realm's reservation out
// of observed queue pressure — the paper's adaptive-reservation loop
// run at cluster scope, where the budget is a tenant's slice of the
// fleet.
//
// The default size is a CI-friendly 16 machines x 16 cores; raise
// -machines/-cores/-realms to the headline 100x64x8 scenario.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/report"
	"repro/selftune"
	"repro/selftune/cluster"
)

func main() {
	machines := flag.Int("machines", 16, "fleet size")
	cores := flag.Int("cores", 16, "cores per machine")
	realms := flag.Int("realms", 4, "tenant realms (a quarter of them surge mid-run)")
	seconds := flag.Int("seconds", 12, "simulated horizon in seconds")
	seed := flag.Uint64("seed", 11, "deterministic seed")
	autoscale := flag.Bool("autoscale", true, "grow/shrink realm reservations from queue pressure")
	flag.Parse()
	if *machines < 2 || *cores < 2 || *realms < 1 || *seconds < 3 {
		fmt.Fprintln(os.Stderr, "cluster: need at least 2 machines, 2 cores, 1 realm, 3 seconds")
		os.Exit(2)
	}

	opts := []cluster.Option{
		cluster.WithSeed(*seed),
		cluster.WithMachines(*machines),
		cluster.WithCores(*cores),
		cluster.WithDetail(1),
		cluster.WithFleetBalancer(cluster.FleetWorstFit(0, 0)),
	}
	if *autoscale {
		opts = append(opts, cluster.WithAutoscaler(cluster.DefaultAutoscalerConfig()))
	}
	c, err := cluster.New(opts...)
	if err != nil {
		panic(err)
	}

	// Realm slices: each realm is statically promised 1/8 of the fleet
	// divided evenly, so the autoscaler has real headroom to grow into.
	perRealm := c.Capacity() / float64(8**realms)
	if perRealm < 2 {
		perRealm = 2
	}
	type tenant struct {
		realm *cluster.Realm
		surge bool
		base  float64
	}
	tenants := make([]tenant, 0, *realms)
	for i := 0; i < *realms; i++ {
		surge := i >= *realms-max(1, *realms/4)
		cfg := cluster.RealmConfig{
			Name:        fmt.Sprintf("steady%d", i),
			Reservation: perRealm,
			QueueCap:    32,
			Rate:        0.75 * perRealm / (0.30 * 1.3),
			Mix: []cluster.WorkloadSpec{
				{Kind: "webserver", Hint: 0.30, Service: cluster.Exp(1200 * selftune.Millisecond), Weight: 3},
				{Kind: "gameloop", Hint: 0.25, Service: cluster.Uniform(800*selftune.Millisecond, 1800*selftune.Millisecond)},
			},
		}
		if surge {
			cfg.Name = fmt.Sprintf("surge%d", i)
			cfg.Rate = 0.5 * perRealm / (0.35 * 1.2)
			cfg.Mix = []cluster.WorkloadSpec{
				{Kind: "vmboot", Hint: 0.40, Util: 0.30, Service: cluster.Pareto(900*selftune.Millisecond, 1.6), Weight: 2},
				{Kind: "webserver", Hint: 0.30, Service: cluster.Exp(1000 * selftune.Millisecond)},
			}
		}
		r, err := c.AddRealm(cfg)
		if err != nil {
			panic(err)
		}
		tenants = append(tenants, tenant{realm: r, surge: surge, base: cfg.Rate})
	}

	// Thirds: baseline, surge (boot storm: tripled arrivals on the
	// surge realms), recovery.
	third := selftune.Duration(*seconds) * selftune.Second / 3
	c.Run(third)
	for _, t := range tenants {
		if t.surge {
			t.realm.SetRate(3 * t.base)
		}
	}
	c.Run(third)
	for _, t := range tenants {
		if t.surge {
			t.realm.SetRate(t.base)
		}
	}
	c.Run(selftune.Duration(*seconds)*selftune.Second - 2*third)

	tbl := report.NewTable(
		fmt.Sprintf("realms after %ds on %d machines x %d cores", *seconds, *machines, *cores),
		"realm", "reservation", "used", "queue", "arrived", "admitted", "rejected", "reject%", "grows", "shrinks")
	for _, t := range tenants {
		st := t.realm.Stats()
		tbl.AddRowf(st.Name,
			fmt.Sprintf("%.1f", st.Reservation), fmt.Sprintf("%.1f", st.Used),
			st.Queue, st.Arrived, st.Admitted, st.Rejected,
			fmt.Sprintf("%.2f%%", st.RejectFraction()*100), st.Grows, st.Shrinks)
	}
	tbl.AddNote("fleet: %.0f core-equivalents, %.1f reserved, %d jobs resident, %d re-placements, %d engine steps",
		c.Capacity(), c.Reserved(), c.Resident(), c.Replacements(), c.Steps())
	tbl.Render(os.Stdout)

	for _, t := range c.Collector().Snapshot().Tables() {
		t.Render(os.Stdout)
	}
	fmt.Println(`
The surge realms' VM-boot storm triples their arrivals mid-run. With
-autoscale=false their static reservations cap admissions and the
front-end queues overflow into rejects; with the autoscaler on, queue
pressure sustained past the hysteresis guard grows their reservations
out of the fleet's unreserved headroom (never below any realm's static
promise), and the rejects largely disappear. The telemetry tables are
the same machinery that reports on a single machine: machines play the
cores, realms play the tuned tasks.`)
}
