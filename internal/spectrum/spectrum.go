// Package spectrum implements the paper's period analyser (Secs. 4.2
// and 4.3): a sparse discrete-time Fourier transform computed directly
// over the event timestamps (each event contributes e^{-jωt}), and the
// peak-detection heuristic that extracts the fundamental frequency.
//
// The direct formulation is what makes the approach viable in the
// paper: an FFT would require sampling the Dirac train at nanosecond
// resolution, whereas the cost here is one complex exponential per
// (event, frequency bin) pair — Equation (3) of the paper. The
// implementation counts those operations so the complexity claims can
// be tested, not just trusted.
//
// One kernel serves Compute, Incremental and Window. Per event it takes
// the sine and cosine of the bin step δω·t (δω = 2π·DeltaF) and of
// ω_b·t at the first bin b of every 64-bin block, each bit-equal to
// math.Sincos, and reaches the other bins by rotation: 17 anchors per
// event on the default band instead of 991 transcendental calls. The
// accumulators are kept row by row, row k holding bin k of every block,
// so the blocks of one event rotate side by side as vector lanes. On
// amd64 CPUs with AVX2 (CPUID decides once) both halves run four lanes
// per instruction: the anchors repeat math.Sincos's own IEEE operations
// lane by lane, and the rows advance sixteen lanes per pass. Elsewhere,
// and for an event so late that an anchor's argument reaches
// math.Sincos's large-argument reduction, math.Sincos and a Go loop of
// the same operations do the work. Each bin receives its events in
// order, the batch added and then the expired events removed, and its
// term for an event depends only on the event and the bin, so no bit
// depends on how events are batched or on which path ran. Against a
// per-bin math.Sincos the deviation is dominated by the rounding of the
// per-bin argument ω_i·t itself (kernel_test.go derives the bound). Ops
// still counts N·F exponentials per batch (Eq. 3).
package spectrum

import (
	"math"
	"slices"

	"repro/internal/simtime"
)

// Band describes the analysed frequency range: [FMin, FMax] sampled
// every DeltaF, all in Hz.
type Band struct {
	FMin, FMax, DeltaF float64
}

// DefaultBand matches the paper's common configuration.
var DefaultBand = Band{FMin: 1, FMax: 100, DeltaF: 0.1}

// Bins returns the number of frequency samples in the band.
func (b Band) Bins() int {
	if b.DeltaF <= 0 || b.FMax < b.FMin {
		return 0
	}
	return int(math.Floor((b.FMax-b.FMin)/b.DeltaF+1e-9)) + 1
}

// Valid reports whether the band is well-formed.
func (b Band) Valid() bool {
	return b.DeltaF > 0 && b.FMin >= 0 && b.FMax > b.FMin
}

// Freq returns the frequency of bin i.
func (b Band) Freq(i int) float64 { return b.FMin + float64(i)*b.DeltaF }

// Bin returns the bin index nearest to frequency f, clamped to the
// band.
func (b Band) Bin(f float64) int {
	i := int(math.Round((f - b.FMin) / b.DeltaF))
	if i < 0 {
		i = 0
	}
	if n := b.Bins(); i >= n {
		i = n - 1
	}
	return i
}

// Spectrum is a sampled amplitude spectrum |S(ω)| of an event train.
type Spectrum struct {
	Band Band
	// Amp[i] = |Σ e^{-j 2π Freq(i) t_k}| over the analysed events.
	Amp []float64
	// Events is the number of events analysed (N in Eq. 3).
	Events int
	// Ops is the number of complex exponentials evaluated (O in Eq. 3).
	Ops int64
}

// Compute evaluates the amplitude spectrum of the given event train
// over the band, exactly as Eq. (4): |S(ω)| = |Σ_i e^{-jω t_i}|.
func Compute(events []simtime.Time, band Band) *Spectrum {
	inc := NewIncremental(band)
	inc.update(events, nil)
	return inc.Spectrum()
}

// Normalized returns the amplitudes scaled so the maximum is 1 (the
// form plotted in Figure 10). A zero spectrum is returned unchanged.
func (s *Spectrum) Normalized() []float64 {
	max := 0.0
	for _, a := range s.Amp {
		if a > max {
			max = a
		}
	}
	out := make([]float64, len(s.Amp))
	if max == 0 {
		return out
	}
	for i, a := range s.Amp {
		out[i] = a / max
	}
	return out
}

// Mean returns the average amplitude over the band (the reference for
// the α threshold in the peak heuristic).
func (s *Spectrum) Mean() float64 {
	if len(s.Amp) == 0 {
		return 0
	}
	var sum float64
	for _, a := range s.Amp {
		sum += a
	}
	return sum / float64(len(s.Amp))
}

// Incremental maintains the spectrum accumulators event by event, the
// form the paper's lfs++ daemon uses: "whenever we record the ith
// event at time ti ... its contribution to the spectrum is e^{-jωti}".
// Events can also be removed, which Window uses to expire events
// falling out of the observation horizon.
type Incremental struct {
	band  Band
	bins  int // band.Bins()
	lanes int // blocks, one vector lane each
	// w holds 2π·Freq at the first bin of each block, one per lane, then
	// the bin step δω = 2π·DeltaF, then zeros up to a multiple of four
	// entries; wmax is the largest.
	w    []float64
	wmax float64
	// re and im hold bin j·block+k at k·lanes+j (see rows); the rows
	// past the end of a short last block are padding nobody reads.
	re, im []float64
	c, s   []float64 // scratch: one event's anchors, one per entry of w
	avx2   bool      // run the AVX2 anchors and rows: haveAVX2 unless a test forces Go
	events int
	ops    int64
}

// NewIncremental returns an empty incremental analyser over the band.
func NewIncremental(band Band) *Incremental {
	if !band.Valid() {
		panic("spectrum: invalid band")
	}
	bins := band.Bins()
	lanes := (bins + block - 1) / block
	entries := (lanes + 1 + 3) &^ 3
	inc := &Incremental{
		band:  band,
		bins:  bins,
		lanes: lanes,
		w:     make([]float64, entries),
		re:    make([]float64, lanes*block),
		im:    make([]float64, lanes*block),
		c:     make([]float64, entries),
		s:     make([]float64, entries),
		avx2:  haveAVX2,
	}
	for j := 0; j < lanes; j++ {
		inc.w[j] = 2 * math.Pi * band.Freq(j*block)
	}
	inc.w[lanes] = 2 * math.Pi * band.DeltaF
	inc.wmax = slices.Max(inc.w)
	return inc
}

// Band returns the analysed band.
func (inc *Incremental) Band() Band { return inc.band }

// Events returns the number of events currently accumulated.
func (inc *Incremental) Events() int { return inc.events }

// Ops returns the total complex exponentials evaluated so far.
func (inc *Incremental) Ops() int64 { return inc.ops }

// Add accumulates one event.
func (inc *Incremental) Add(t simtime.Time) { inc.update([]simtime.Time{t}, nil) }

// Remove subtracts a previously added event. The caller must ensure
// the event was in fact added; the analyser cannot verify it.
func (inc *Incremental) Remove(t simtime.Time) { inc.update(nil, []simtime.Time{t}) }

// update adds the events in add and then removes those in sub, each
// in order.
func (inc *Incremental) update(add, sub []simtime.Time) {
	for _, t := range add {
		inc.accumulate(t.Seconds(), 1)
	}
	for _, t := range sub {
		inc.accumulate(t.Seconds(), -1)
	}
	inc.events += len(add) - len(sub)
	inc.ops += int64(len(add)+len(sub)) * int64(inc.bins)
}

// accumulate adds sign·e^{-jωt} to every bin: one exact anchor per
// block, the sign folded into it (rounding is symmetric, so rotating
// −z gives exactly −(z rotated)), and the rows rotate it to the other
// bins.
func (inc *Incremental) accumulate(t, sign float64) {
	dc, ds := inc.anchors(t, sign)
	rows(inc.re, inc.im, inc.c[:inc.lanes], inc.s[:inc.lanes], dc, ds, min(inc.bins, block), inc.lanes, inc.avx2)
}

// anchors sets lane j of c and s to sign·cos and sign·sin of w[j]·t,
// each bit-equal to math.Sincos, and returns the cosine and sine of the
// step δω·t.
func (inc *Incremental) anchors(t, sign float64) (dc, ds float64) {
	if inc.avx2Anchors(t) {
		anchorsAVX2(inc.w, inc.c, inc.s, t, sign)
	} else {
		for j, w := range inc.w[:inc.lanes+1] {
			s, c := math.Sincos(w * t)
			inc.c[j], inc.s[j] = sign*c, sign*s
		}
	}
	// The step carries the sign like the anchors; multiplying by ±1
	// again undoes it exactly.
	return sign * inc.c[inc.lanes], sign * inc.s[inc.lanes]
}

// avx2Anchors reports whether anchors computes an event at t with
// anchorsAVX2, every entry of w at once: on an AVX2 path, while the
// largest argument stays below math.Sincos's reduceThreshold (a t that
// is not finite fails the comparison too). math.Sincos computes the
// other events one entry at a time.
func (inc *Incremental) avx2Anchors(t float64) bool {
	return inc.avx2 && inc.wmax*math.Abs(t) < reduceThreshold
}

// at returns where bin i sits in re and im.
func (inc *Incremental) at(i int) int { return i%block*inc.lanes + i/block }

// Reset clears the accumulators.
func (inc *Incremental) Reset() {
	clear(inc.re)
	clear(inc.im)
	inc.events = 0
}

// Spectrum materialises the current amplitude spectrum.
func (inc *Incremental) Spectrum() *Spectrum {
	s := new(Spectrum)
	inc.SpectrumInto(s)
	return s
}

// SpectrumInto materialises the current amplitude spectrum into s,
// reusing the storage of s.Amp when it is large enough.
func (inc *Incremental) SpectrumInto(s *Spectrum) {
	n := inc.bins
	amp := s.Amp
	if cap(amp) < n {
		amp = make([]float64, n)
	}
	amp = amp[:n]
	for i := range amp {
		k := inc.at(i)
		amp[i] = math.Hypot(inc.re[k], inc.im[k])
	}
	*s = Spectrum{Band: inc.band, Amp: amp, Events: inc.events, Ops: inc.ops}
}

// Window is an incremental analyser over a sliding observation horizon
// H: events older than H before the latest Observe call are expired.
type Window struct {
	inc     *Incremental
	horizon simtime.Duration
	buf     []simtime.Time // chronological
}

// NewWindow returns a sliding-window analyser with horizon h.
func NewWindow(band Band, h simtime.Duration) *Window {
	if h <= 0 {
		panic("spectrum: window horizon must be positive")
	}
	return &Window{inc: NewIncremental(band), horizon: h}
}

// Horizon returns the observation horizon H.
func (w *Window) Horizon() simtime.Duration { return w.horizon }

// Events returns the number of events currently inside the window.
func (w *Window) Events() int { return w.inc.events }

// Observe adds a batch of events (must be chronological and not before
// previously observed events) and expires those older than H relative
// to now. Expiry applies after the batch is added, so a batch event
// already older than H is added and then removed.
func (w *Window) Observe(now simtime.Time, events []simtime.Time) {
	w.buf = append(w.buf, events...)
	cutoff := now.Add(-w.horizon)
	drop := 0
	for drop < len(w.buf) && w.buf[drop] < cutoff {
		drop++
	}
	w.inc.update(events, w.buf[:drop])
	if drop > 0 {
		w.buf = append(w.buf[:0], w.buf[drop:]...)
	}
}

// Spectrum materialises the spectrum of the events inside the window.
func (w *Window) Spectrum() *Spectrum { return w.inc.Spectrum() }

// SpectrumInto is Spectrum on the caller's storage, as
// Incremental.SpectrumInto.
func (w *Window) SpectrumInto(s *Spectrum) { w.inc.SpectrumInto(s) }

// Reset clears the window.
func (w *Window) Reset() {
	w.inc.Reset()
	w.buf = w.buf[:0]
}
