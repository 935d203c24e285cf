package core_test

import (
	"testing"

	"repro/internal/feedback"
	"repro/internal/simtime"
	"repro/internal/supervisor"
)

// BenchmarkFeedbackStep measures step 3 of a tuner activation (the
// feedback half of Tuner.tick): one LFS++ Tick — the consumption
// sensor, the quantile predictor over its 16-sample window and the
// (1+x) spread — and the supervisor request that grants its verdict.
// The supervisor holds three clients, as many as the tuned workloads
// per core in the benchmark's tune workload, and their requests fit
// under U_lub, as they do there, so no request is compressed.
func BenchmarkFeedbackStep(b *testing.B) {
	const period, sampling = 40 * ms, 200 * ms
	sup := supervisor.New(1)
	var clients []*supervisor.Client
	for _, name := range []string{"video", "mp3", "gameloop"} {
		c, ok := sup.Register(name, 0.01)
		if !ok {
			b.Fatalf("supervisor refused %s", name)
		}
		c.Request(6*ms, period)
		clients = append(clients, c)
	}
	// Per-interval consumption around 30 ms (6 ms per 40 ms period),
	// varied so the predictor's window holds distinct samples.
	consumed := []simtime.Duration{29 * ms, 31 * ms, 30 * ms, 33 * ms, 28 * ms, 30 * ms, 32 * ms}
	ctl := feedback.NewLFSPP()
	s := feedback.Sample{Period: period, Sampling: sampling, Budget: 6 * ms}
	step := func(i int) {
		s.Now = s.Now.Add(sampling)
		s.Consumed += consumed[i%len(consumed)]
		s.Budget = clients[0].Request(ctl.Tick(s), period)
	}
	// Prime the controller and fill the predictor's window.
	for i := 0; i < 32; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
