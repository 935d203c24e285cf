package spectrum

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/simtime"
)

// diracTrain builds an event train with the paper's structure: for
// each of n periods of length p, one event at each phase in phases
// (phases are execution offsets within the period), plus uniform
// jitter of half-width jit.
func diracTrain(r *rng.Source, p simtime.Duration, n int, phases []simtime.Duration, jit simtime.Duration) []simtime.Time {
	var out []simtime.Time
	for k := 0; k < n; k++ {
		base := simtime.Time(k) * simtime.Time(p)
		for _, ph := range phases {
			t := base.Add(ph)
			if jit > 0 {
				t = t.Add(simtime.Duration(r.Int63n(int64(2*jit))) - jit)
			}
			if t < 0 {
				t = 0
			}
			out = append(out, t)
		}
	}
	return out
}

func TestBandBins(t *testing.T) {
	b := Band{FMin: 1, FMax: 100, DeltaF: 0.1}
	if got := b.Bins(); got != 991 {
		t.Errorf("Bins() = %d, want 991", got)
	}
	if f := b.Freq(0); f != 1 {
		t.Errorf("Freq(0) = %v", f)
	}
	if f := b.Freq(990); math.Abs(f-100) > 1e-9 {
		t.Errorf("Freq(last) = %v", f)
	}
	if i := b.Bin(32.5); math.Abs(b.Freq(i)-32.5) > 0.05+1e-9 {
		t.Errorf("Bin(32.5) -> freq %v", b.Freq(i))
	}
	if i := b.Bin(-5); i != 0 {
		t.Errorf("Bin clamps low: %d", i)
	}
	if i := b.Bin(1e6); i != b.Bins()-1 {
		t.Errorf("Bin clamps high: %d", i)
	}
}

func TestInvalidBandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Compute with invalid band did not panic")
		}
	}()
	Compute(nil, Band{FMin: 10, FMax: 5, DeltaF: 0.1})
}

func TestPureTrainDetected(t *testing.T) {
	// 25 Hz train, two bursts per period, no jitter: the analyser must
	// nail the fundamental.
	r := rng.New(1)
	phases := []simtime.Duration{0, 38 * simtime.Millisecond}
	events := diracTrain(r, 40*simtime.Millisecond, 50, phases, 0)
	s := Compute(events, DefaultBand)
	d := Detect(s, DefaultDetect)
	if !d.Periodic {
		t.Fatal("pure periodic train declared aperiodic")
	}
	if math.Abs(d.Frequency-25) > DefaultBand.DeltaF+1e-9 {
		t.Errorf("detected %v Hz, want 25", d.Frequency)
	}
}

func TestJitteredBurstsDetected(t *testing.T) {
	// The realistic case: bursts at start and end of period, with
	// jitter, like Figure 5's excerpt.
	r := rng.New(2)
	p := simtime.FromHertz(32.5)
	phases := []simtime.Duration{
		0, simtime.Duration(0.01 * float64(p)), simtime.Duration(0.02 * float64(p)),
		simtime.Duration(0.95 * float64(p)), simtime.Duration(0.97 * float64(p)), p - 1,
	}
	events := diracTrain(r, p, 65, phases, simtime.Millisecond/2)
	s := Compute(events, DefaultBand)
	d := Detect(s, DefaultDetect)
	if !d.Periodic {
		t.Fatal("bursty periodic train declared aperiodic")
	}
	if math.Abs(d.Frequency-32.5) > 0.3 {
		t.Errorf("detected %v Hz, want 32.5", d.Frequency)
	}
}

func TestHarmonicsVisible(t *testing.T) {
	// Figure 10: the spectrum should show peaks near f0, 2f0, 3f0.
	r := rng.New(3)
	p := simtime.FromHertz(32.5)
	phases := []simtime.Duration{0, p - simtime.Millisecond}
	events := diracTrain(r, p, 130, phases, 200*simtime.Microsecond)
	s := Compute(events, DefaultBand)
	norm := s.Normalized()
	for _, h := range []float64{32.5, 65, 97.5} {
		i := s.Band.Bin(h)
		// look in a +-1Hz neighbourhood
		max := 0.0
		for k := i - 10; k <= i+10; k++ {
			if k >= 0 && k < len(norm) && norm[k] > max {
				max = norm[k]
			}
		}
		if max < 0.35 {
			t.Errorf("harmonic near %v Hz has normalised amplitude %v, want prominent", h, max)
		}
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	s := Compute(nil, DefaultBand)
	if d := Detect(s, DefaultDetect); d.Periodic {
		t.Error("empty train declared periodic")
	}
	one := Compute([]simtime.Time{simtime.Time(simtime.Second)}, DefaultBand)
	if d := Detect(one, DefaultDetect); d.Periodic {
		t.Error("single event declared periodic")
	}
}

func TestAperiodicPoissonRejectedWithStrictAlpha(t *testing.T) {
	r := rng.New(4)
	var events []simtime.Time
	t0 := simtime.Time(0)
	for i := 0; i < 300; i++ {
		t0 = t0.Add(simtime.Duration(r.Exp(float64(15 * simtime.Millisecond))))
		events = append(events, t0)
	}
	s := Compute(events, DefaultBand)
	d := Detect(s, DefaultDetect)
	if d.Periodic {
		t.Errorf("Poisson train declared periodic at %v Hz", d.Frequency)
	}
	// And the peak-to-mean criterion can be disabled.
	d = Detect(s, DetectConfig{Alpha: 0.2, Epsilon: 0.5, KMax: 10})
	if !d.Periodic {
		t.Error("with the aperiodicity check disabled, the argmax should win")
	}
}

func TestOpsCounter(t *testing.T) {
	r := rng.New(5)
	events := diracTrain(r, 40*simtime.Millisecond, 10, []simtime.Duration{0}, 0)
	s := Compute(events, DefaultBand)
	want := int64(len(events)) * int64(DefaultBand.Bins())
	if s.Ops != want {
		t.Errorf("Ops = %d, want %d", s.Ops, want)
	}
	if s.Events != len(events) {
		t.Errorf("Events = %d, want %d", s.Events, len(events))
	}
}

func TestScannedCounter(t *testing.T) {
	r := rng.New(6)
	events := diracTrain(r, 40*simtime.Millisecond, 40, []simtime.Duration{0, 38 * simtime.Millisecond}, 0)
	s := Compute(events, DefaultBand)
	d := Detect(s, DefaultDetect)
	if d.Scanned < int64(DefaultBand.Bins()) {
		t.Errorf("Scanned = %d, want at least F = %d", d.Scanned, DefaultBand.Bins())
	}
	// With alpha=0 every local maximum is a candidate: strictly more
	// scanning (Figure 8a vs 8b).
	d0 := Detect(s, DetectConfig{Alpha: 0, Epsilon: 0.5, KMax: 10})
	if d0.Scanned <= d.Scanned {
		t.Errorf("alpha=0 scanned %d, want more than alpha=0.2's %d", d0.Scanned, d.Scanned)
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	r := rng.New(7)
	events := diracTrain(r, 30*simtime.Millisecond, 30, []simtime.Duration{0, 28 * simtime.Millisecond}, simtime.Millisecond)
	batch := Compute(events, DefaultBand)
	for _, avx2 := range rowPaths(t) {
		inc := NewIncremental(DefaultBand)
		inc.avx2 = avx2
		for _, e := range events {
			inc.Add(e)
		}
		got := inc.Spectrum()
		for i := range batch.Amp {
			if math.Float64bits(batch.Amp[i]) != math.Float64bits(got.Amp[i]) {
				t.Fatalf("%s rows, bin %d: batch %v vs incremental %v", pathName(avx2), i, batch.Amp[i], got.Amp[i])
			}
		}
	}
}

func TestIncrementalRemove(t *testing.T) {
	r := rng.New(8)
	events := diracTrain(r, 30*simtime.Millisecond, 20, []simtime.Duration{0}, 0)
	inc := NewIncremental(DefaultBand)
	for _, e := range events {
		inc.Add(e)
	}
	// Remove the first half; must equal a fresh analysis of the rest.
	half := len(events) / 2
	for _, e := range events[:half] {
		inc.Remove(e)
	}
	want := Compute(events[half:], DefaultBand)
	got := inc.Spectrum()
	if got.Events != len(events)-half {
		t.Errorf("Events = %d after removal", got.Events)
	}
	for i := range want.Amp {
		if math.Abs(want.Amp[i]-got.Amp[i]) > 1e-6 {
			t.Fatalf("bin %d: want %v got %v", i, want.Amp[i], got.Amp[i])
		}
	}
}

func TestWindowExpiry(t *testing.T) {
	r := rng.New(9)
	p := 40 * simtime.Millisecond
	events := diracTrain(r, p, 100, []simtime.Duration{0, 38 * simtime.Millisecond}, 0)
	w := NewWindow(DefaultBand, simtime.Duration(simtime.Second))
	// Feed in two batches; after the second, only events within the
	// last second should remain.
	now := simtime.Time(4 * simtime.Second)
	w.Observe(simtime.Time(2*simtime.Second), events[:100])
	w.Observe(now, events[100:])
	cutoff := now.Add(-simtime.Duration(simtime.Second))
	var retained []simtime.Time
	for _, e := range events {
		if e >= cutoff {
			retained = append(retained, e)
		}
	}
	if w.Events() != len(retained) {
		t.Fatalf("window retains %d, want %d", w.Events(), len(retained))
	}
	want := Compute(retained, DefaultBand)
	got := w.Spectrum()
	for i := range want.Amp {
		if math.Abs(want.Amp[i]-got.Amp[i]) > 1e-6 {
			t.Fatalf("bin %d: want %v got %v", i, want.Amp[i], got.Amp[i])
		}
	}
	w.Reset()
	if w.Events() != 0 {
		t.Error("Reset did not clear the window")
	}
}

func TestNormalizedMaxIsOne(t *testing.T) {
	r := rng.New(11)
	events := diracTrain(r, 40*simtime.Millisecond, 30, []simtime.Duration{0}, 0)
	s := Compute(events, DefaultBand)
	norm := s.Normalized()
	max := 0.0
	for _, v := range norm {
		if v < 0 || v > 1 {
			t.Fatalf("normalised amplitude %v out of [0,1]", v)
		}
		if v > max {
			max = v
		}
	}
	if math.Abs(max-1) > 1e-12 {
		t.Errorf("max normalised amplitude %v, want 1", max)
	}
}

func TestRandomPeriodsMostlyDetected(t *testing.T) {
	// For random periods in [20ms, 80ms] with bursts concentrated at
	// period boundaries (the paper's Sec. 4.2 assumption), the detected
	// fundamental must be exact for the vast majority of cases, and any
	// error must be a harmonic lock (the paper's own failure mode,
	// Table 2) — never a sub-harmonic or an unrelated frequency.
	const cases = 60
	exact, harmonic := 0, 0
	for seed := uint64(1); seed <= cases; seed++ {
		r := rng.New(seed)
		p := simtime.Duration(20+r.Intn(61)) * simtime.Millisecond
		nPhases := 3 + r.Intn(5)
		phases := make([]simtime.Duration, 0, nPhases)
		for i := 0; i < nPhases; i++ {
			var ph simtime.Duration
			if r.Bool(0.5) {
				ph = simtime.Duration(r.Uniform(0, 0.05) * float64(p))
			} else {
				ph = simtime.Duration(r.Uniform(0.93, 1.0) * float64(p))
			}
			phases = append(phases, ph)
		}
		n := int(2 * float64(simtime.Second) / float64(p)) // H = 2s
		events := diracTrain(r, p, n, phases, 300*simtime.Microsecond)
		d := Detect(Compute(events, DefaultBand), DefaultDetect)
		if !d.Periodic {
			t.Errorf("seed %d: P=%v declared aperiodic", seed, p)
			continue
		}
		want := p.Hertz()
		ratio := d.Frequency / want
		switch {
		case math.Abs(d.Frequency-want) <= 3*DefaultBand.DeltaF:
			exact++
		case math.Abs(ratio-math.Round(ratio)) < 0.05 && ratio > 1.5:
			harmonic++
		default:
			t.Errorf("seed %d: P=%v want %.2f Hz got %.2f Hz (neither exact nor harmonic)",
				seed, p, want, d.Frequency)
		}
	}
	if exact < cases*85/100 {
		t.Errorf("only %d/%d exact detections (harmonic locks: %d)", exact, cases, harmonic)
	}
}

func TestQuickAmplitudeBounds(t *testing.T) {
	// Property: |S(ω)| of N unit events is bounded by N at every bin,
	// and a single event yields a flat unit spectrum.
	check := func(raw []uint32) bool {
		events := make([]simtime.Time, 0, len(raw))
		for _, v := range raw {
			events = append(events, simtime.Time(v)*simtime.Time(simtime.Microsecond))
		}
		band := Band{FMin: 1, FMax: 50, DeltaF: 1}
		s := Compute(events, band)
		for _, a := range s.Amp {
			if a > float64(len(events))+1e-6 {
				return false
			}
		}
		if len(events) == 1 {
			for _, a := range s.Amp {
				if math.Abs(a-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
