package spectrum

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/simtime"
)

func benchTrain(n int) []simtime.Time {
	r := rng.New(1)
	return diracTrain(r, 30*simtime.Millisecond, n,
		[]simtime.Duration{0, 28 * simtime.Millisecond}, 300*simtime.Microsecond)
}

func BenchmarkComputeReference(b *testing.B) {
	events := benchTrain(65) // ~2s of the mp3 workload's frames
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compute(events, DefaultBand)
	}
}

func BenchmarkIncrementalAdd(b *testing.B) {
	inc := NewIncremental(DefaultBand)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inc.Add(simtime.Time(i) * simtime.Time(simtime.Millisecond))
	}
}

func BenchmarkDetect(b *testing.B) {
	s := Compute(benchTrain(65), DefaultBand)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Detect(s, DefaultDetect)
	}
}

func BenchmarkWindowObserve(b *testing.B) {
	w := NewWindow(DefaultBand, 2*simtime.Second)
	batch := make([]simtime.Time, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := simtime.Time(i) * simtime.Time(10*simtime.Millisecond)
		for k := range batch {
			batch[k] = now.Add(simtime.Duration(k) * simtime.Millisecond)
		}
		w.Observe(now, batch)
	}
}

// BenchmarkWindowObserveTune is one tuner activation of the tune
// benchmark workload: a 2 s horizon holding ~880 events, with ~88
// added and ~88 expired per 200 ms Observe. The window is warmed up to
// its steady occupancy first, so -benchtime=1x reports steady state.
func BenchmarkWindowObserveTune(b *testing.B) {
	const perBatch = 88
	step := 200 * simtime.Millisecond
	w := NewWindow(DefaultBand, 2*simtime.Second)
	batch := make([]simtime.Time, perBatch)
	now := simtime.Time(0)
	observe := func() {
		now = now.Add(step)
		for k := range batch {
			batch[k] = now.Add(-step + simtime.Duration(k)*step/perBatch)
		}
		w.Observe(now, batch)
	}
	for i := 0; i < 20; i++ {
		observe()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe()
	}
}

// BenchmarkKernel prices the analyser's spectrum update, the layer one
// tuner activation spends its time in: 88 events added and the same 88
// removed on the default band, as one Observe of the tune workload
// does. The rows= runs time the whole update, anchors included, and
// report ns_per_term, the cost per event and bin (the unit of Eq. 3);
// the anchors= runs time the anchors alone, the 16 block anchors and
// the step of one event, and report ns_per_event. Each runs on the Go
// path and on the AVX2 path; run it at -cpu 1.
func BenchmarkKernel(b *testing.B) {
	events := make([]simtime.Time, 88)
	for k := range events {
		events[k] = simtime.Time(10 * simtime.Second).Add(simtime.Duration(k) * 200 * simtime.Millisecond / 88)
	}
	for _, avx2 := range []bool{false, true} {
		b.Run("rows="+pathName(avx2), func(b *testing.B) {
			if avx2 && !haveAVX2 {
				b.Skip("no AVX2 on this host")
			}
			inc := NewIncremental(DefaultBand)
			inc.avx2 = avx2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inc.update(events, events)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(inc.Ops()), "ns_per_term")
		})
	}
	for _, avx2 := range []bool{false, true} {
		b.Run("anchors="+pathName(avx2), func(b *testing.B) {
			if avx2 && !haveAVX2 {
				b.Skip("no AVX2 on this host")
			}
			inc := NewIncremental(DefaultBand)
			inc.avx2 = avx2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, t := range events {
					inc.anchors(t.Seconds(), 1)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns_per_event")
		})
	}
}
