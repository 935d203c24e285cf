package spectrum

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/simtime"
)

// checkSincos2 fails unless sincos2(x0, x1) is math.Sincos of each
// argument, bit for bit.
func checkSincos2(t *testing.T, x0, x1 float64) {
	s0, c0, s1, c1 := sincos2(x0, x1)
	for _, c := range [2][3]float64{{x0, s0, c0}, {x1, s1, c1}} {
		ws, wc := math.Sincos(c[0])
		if math.Float64bits(c[1]) != math.Float64bits(ws) || math.Float64bits(c[2]) != math.Float64bits(wc) {
			t.Fatalf("sincos2 at x=%v (%#x): got (%v, %v), math.Sincos (%v, %v)",
				c[0], math.Float64bits(c[0]), c[1], c[2], ws, wc)
		}
	}
}

// raceEnabled is set by the race build. The race detector slows the
// bit-identity tests' arithmetic about tenfold, so under it they check
// a twentieth of the arguments and a 6 s train instead of 30 s: enough
// to run every forced split concurrently.
var raceEnabled bool

func TestSincos2MatchesMathSincos(t *testing.T) {
	pairs, edges := 5_000_000, 100_000
	if raceEnabled {
		pairs, edges = pairs/20, edges/20
	}
	r := rand.New(rand.NewPCG(1, 2))
	// 10M arguments over (0, 2^29): half log-uniform, so every binade
	// from 2^-30 up is covered, half uniform, where most bins' ω·t fall.
	for k := 0; k < pairs; k++ {
		lx0 := math.Exp2(-30 + 59*r.Float64())
		lx1 := math.Exp2(-30 + 59*r.Float64())
		checkSincos2(t, lx0, lx1)
		checkSincos2(t, r.Float64()*reduceThreshold, r.Float64()*reduceThreshold)
	}

	// Each octant boundary kπ/4 and its neighbours one ulp away, for
	// the first octants and for the last ones below 2^29.
	last := int(math.Floor(reduceThreshold / (math.Pi / 4)))
	for _, ks := range [][2]int{{1, edges}, {last - edges, last}} {
		for k := ks[0]; k <= ks[1]; k++ {
			b := float64(k) * (math.Pi / 4)
			checkSincos2(t, math.Nextafter(b, 0), b)
			checkSincos2(t, math.Nextafter(b, math.Inf(1)), b)
		}
	}

	// Every fallback argument, in either position and paired with an
	// argument of the inline path.
	top := math.Nextafter(reduceThreshold, 0)
	for _, x := range []float64{
		0, math.Copysign(0, -1), -1, -top, -reduceThreshold,
		reduceThreshold, math.Nextafter(reduceThreshold, math.Inf(1)), 1e300, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		checkSincos2(t, x, 1.5)
		checkSincos2(t, 1.5, x)
		checkSincos2(t, x, x)
	}
	checkSincos2(t, math.SmallestNonzeroFloat64, top)
}

// refWindow is the analyser loop the kernel replaced: event-major, one
// math.Sincos per (event, bin), the batch added and then the expired
// prefix removed, each event in order.
type refWindow struct {
	band    Band
	re, im  []float64
	horizon simtime.Duration
	buf     []simtime.Time
}

func (r *refWindow) accumulate(t simtime.Time, sign float64) {
	ts := t.Seconds()
	n := len(r.re)
	for i := 0; i < n; i++ {
		w := 2 * math.Pi * r.band.Freq(i)
		s, c := math.Sincos(w * ts)
		r.re[i] += sign * c
		r.im[i] -= sign * s
	}
}

func (r *refWindow) observe(now simtime.Time, events []simtime.Time) {
	for _, t := range events {
		r.accumulate(t, 1)
		r.buf = append(r.buf, t)
	}
	cutoff := now.Add(-r.horizon)
	drop := 0
	for drop < len(r.buf) && r.buf[drop] < cutoff {
		r.accumulate(r.buf[drop], -1)
		drop++
	}
	r.buf = append(r.buf[:0], r.buf[drop:]...)
}

// tuneTrain is a syscall train shaped like the tune benchmark's tuned
// tasks: a 25 fps player, an mp3 decoder and a 60 Hz game loop, each
// with bursts of calls per period and jitter, ~440 events/s over 30 s
// (6 s under the race detector), starting with an event at t=0. The
// instants are offset by start.
func tuneTrain(start simtime.Time) []simtime.Time {
	r := rng.New(3)
	length := 30 * simtime.Second
	if raceEnabled {
		length = 6 * simtime.Second
	}
	ms := simtime.Millisecond
	var out []simtime.Time
	for _, src := range []struct {
		p      simtime.Duration
		phases []simtime.Duration
	}{
		{40 * ms, []simtime.Duration{0, 2 * ms, 5 * ms, 11 * ms, 30 * ms}},
		{26 * ms, []simtime.Duration{0, 4 * ms, 9 * ms, 20 * ms}},
		{16666 * simtime.Microsecond, []simtime.Duration{0, 3 * ms, 7 * ms, 12 * ms}},
	} {
		out = append(out, diracTrain(r, src.p, int(length/src.p), src.phases, 500*simtime.Microsecond)...)
	}
	out = append(out, 0)
	slices.Sort(out)
	for i := range out {
		out[i] = start.Add(simtime.Duration(out[i]))
	}
	return out
}

// bins is a copy of an analyser's event count and accumulators.
type bins struct {
	events int
	re, im []float64
}

// replayTune feeds train to observe in 200 ms batches, then one batch
// observed so late (three horizons after the last event) that all of
// it is already past the cutoff, and collects what observe returns.
func replayTune(train []simtime.Time, horizon simtime.Duration, observe func(now simtime.Time, batch []simtime.Time) bins) []bins {
	var out []bins
	now := train[0]
	next, tail := 0, len(train)-10
	for next < tail {
		now = now.Add(200 * simtime.Millisecond)
		end := next
		for end < tail && train[end] <= now {
			end++
		}
		out = append(out, observe(now, train[next:end]))
		next = end
	}
	return append(out, observe(train[len(train)-1].Add(3*horizon), train[next:]))
}

func TestObserveMatchesEventMajorReference(t *testing.T) {
	// 1e6 s puts ω·t at or above 2^29 for the bins above ~85 Hz, so the
	// kernel's fallback runs next to its inline path; FMin 0 sends the
	// whole first bin to it.
	far := simtime.Time(1_000_000 * simtime.Second)
	if 2*math.Pi*DefaultBand.FMax*far.Seconds() < 1<<29 {
		t.Fatal("far train does not reach the fallback range")
	}
	const h = 2 * simtime.Second
	for _, sc := range []struct {
		name  string
		band  Band
		train []simtime.Time
	}{
		{"default band from t=0", DefaultBand, tuneTrain(0)},
		{"FMin 0 from 1e6 s", Band{FMin: 0, FMax: 100, DeltaF: 0.1}, tuneTrain(far)},
	} {
		ref := &refWindow{band: sc.band, re: make([]float64, sc.band.Bins()),
			im: make([]float64, sc.band.Bins()), horizon: h}
		want := replayTune(sc.train, h, func(now simtime.Time, batch []simtime.Time) bins {
			ref.observe(now, batch)
			return bins{len(ref.buf), slices.Clone(ref.re), slices.Clone(ref.im)}
		})
		if last := want[len(want)-1]; last.events != 0 {
			t.Fatalf("%s: the late batch left %d events in the reference", sc.name, last.events)
		}
		for _, split := range []int{1, 2, 3, 7} {
			w := NewWindow(sc.band, h)
			w.inc.split = split
			got := replayTune(sc.train, h, func(now simtime.Time, batch []simtime.Time) bins {
				w.Observe(now, batch)
				return bins{w.Events(), slices.Clone(w.inc.re), slices.Clone(w.inc.im)}
			})
			for k := range want {
				if got[k].events != want[k].events {
					t.Fatalf("%s, split %d, Observe %d: %d events, reference %d",
						sc.name, split, k, got[k].events, want[k].events)
				}
				for i := range want[k].re {
					if math.Float64bits(got[k].re[i]) != math.Float64bits(want[k].re[i]) ||
						math.Float64bits(got[k].im[i]) != math.Float64bits(want[k].im[i]) {
						t.Fatalf("%s, split %d, Observe %d, bin %d: kernel (%v, %v), reference (%v, %v)",
							sc.name, split, k, i, got[k].re[i], got[k].im[i], want[k].re[i], want[k].im[i])
					}
				}
			}
		}
	}
}

func TestObserveAllocatesNothingWhenWarm(t *testing.T) {
	w := NewWindow(DefaultBand, 2*simtime.Second)
	w.inc.split = 1
	batch := make([]simtime.Time, 88)
	now := simtime.Time(0)
	observe := func() {
		now = now.Add(200 * simtime.Millisecond)
		for k := range batch {
			batch[k] = now.Add(-simtime.Duration(len(batch)-k) * 2 * simtime.Millisecond)
		}
		w.Observe(now, batch)
	}
	for i := 0; i < 20; i++ {
		observe()
	}
	if a := testing.AllocsPerRun(20, observe); a != 0 {
		t.Errorf("warm Observe allocates %v times per call, want 0", a)
	}
}
