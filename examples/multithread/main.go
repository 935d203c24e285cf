// Multithread: one legacy application with two threads — a 50 Hz audio
// mixer and a 25 Hz video decoder — tuned two ways:
//
//  1. per-thread reservations (one Tuner each), the efficient
//     configuration the paper's Figure 2 recommends;
//  2. one shared reservation managed by one Tuner (TuneShared, the
//     paper's Sec. 6 multi-threaded future-work item).
//
// Both keep the threads on rate. The printed bandwidths also make a
// point the paper's Figure 2 leaves implicit: the figure's bandwidth
// premium for shared reservations is a *worst-case guarantee* cost,
// while the feedback loop only reserves what the threads measurably
// consume — so in closed loop the two configurations cost nearly the
// same, and what the shared reservation gives up is analysable
// schedulability, not average bandwidth.
package main

import (
	"fmt"

	"repro/internal/stats"
	"repro/selftune"
)

func threadConfigs() []selftune.PlayerConfig {
	return []selftune.PlayerConfig{
		{
			Name:          "app:audio",
			Period:        20 * selftune.Millisecond,
			ReleaseJitter: 200 * selftune.Microsecond,
			MeanDemand:    selftune.Duration(0.08 * float64(20*selftune.Millisecond)),
			DemandJitter:  0.05,
			StartBurstMin: 4, StartBurstMax: 7,
			EndBurstMin: 4, EndBurstMax: 7,
		},
		{
			Name:          "app:video",
			Period:        40 * selftune.Millisecond,
			ReleaseJitter: 300 * selftune.Microsecond,
			MeanDemand:    selftune.Duration(0.18 * float64(40*selftune.Millisecond)),
			DemandJitter:  0.08,
			StartBurstMin: 6, StartBurstMax: 10,
			EndBurstMin: 6, EndBurstMax: 10,
		},
	}
}

// spawnThreads places both threads of the application on the same
// core, as threads of one process would be.
func spawnThreads(sys *selftune.System, opts ...selftune.SpawnOption) []*selftune.Handle {
	var handles []*selftune.Handle
	for _, cfg := range threadConfigs() {
		h, err := sys.Spawn("player",
			append([]selftune.SpawnOption{
				selftune.SpawnName(cfg.Name),
				selftune.SpawnPlayer(cfg),
				selftune.OnCore(0),
			}, opts...)...)
		if err != nil {
			panic(err)
		}
		handles = append(handles, h)
	}
	return handles
}

func meanIFT(p *selftune.Player) float64 {
	ift := p.InterFrameTimes()
	if len(ift) < 300 {
		return 0
	}
	xs := make([]float64, 0, len(ift)-250)
	for _, d := range ift[250:] {
		xs = append(xs, d.Milliseconds())
	}
	return stats.Mean(xs)
}

func main() {
	const horizon = 40 * selftune.Second

	// Configuration 1: a reservation per thread.
	{
		sys, err := selftune.NewSystem(selftune.WithSeed(21))
		if err != nil {
			panic(err)
		}
		handles := spawnThreads(sys, selftune.Tuned(selftune.DefaultTunerConfig()))
		for _, h := range handles {
			h.Start(0)
		}
		sys.Run(horizon)
		fmt.Printf("per-thread reservations:\n")
		for _, h := range handles {
			fmt.Printf("  %-10s mean inter-frame %.2fms\n", h.Name(), meanIFT(h.Player()))
		}
		fmt.Printf("  total reserved bandwidth: %.3f\n\n", sys.Core(0).Supervisor().TotalGranted())
	}

	// Configuration 2: one shared reservation for the whole app.
	{
		sys, err := selftune.NewSystem(selftune.WithSeed(21))
		if err != nil {
			panic(err)
		}
		handles := spawnThreads(sys)
		// Rate-monotonic priorities: the 50Hz audio thread first.
		tuner, err := sys.TuneShared(handles, []int{0, 1}, selftune.DefaultTunerConfig())
		if err != nil {
			panic(err)
		}
		for _, h := range handles {
			h.Start(0)
		}
		sys.Run(horizon)
		fmt.Printf("one shared reservation (MultiTuner):\n")
		for _, h := range handles {
			fmt.Printf("  %-10s mean inter-frame %.2fms\n", h.Name(), meanIFT(h.Player()))
		}
		fmt.Printf("  detected thread periods: %v\n", tuner.ThreadPeriods())
		fmt.Printf("  reservation: Q=%v every T=%v -> bandwidth %.3f\n",
			tuner.Server().Budget(), tuner.Server().Period(), tuner.Server().Bandwidth())
		fmt.Println(`
Both configurations keep the threads on rate at nearly the same
measured bandwidth: the feedback loop reserves what is consumed, not
the worst case. Figure 2's premium for shared reservations is the
price of *guaranteeing* the deadlines analytically — compare
analysis.MinBandwidthRMServer (one server, worst-case phasing of both
threads) with the sum of per-thread utilisations.`)
	}
}
