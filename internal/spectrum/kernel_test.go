package spectrum

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/simtime"
)

// raceEnabled is set by the race build. The race detector slows the
// kernel's arithmetic about tenfold, so under it the reference tests
// replay a 6 s train instead of 30 s.
var raceEnabled bool

// rowPaths are the row loops the tests force in turn: rowsGo, and
// rowsAVX2 where the host has AVX2.
func rowPaths(t *testing.T) []bool {
	if !haveAVX2 {
		t.Log("no AVX2 on this host: only the Go rows run")
		return []bool{false}
	}
	return []bool{false, true}
}

func pathName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "go"
}

// sincosTerms is the per-bin loop the kernel replaced, one math.Sincos
// of ω_i·t per bin: the accuracy reference.
func sincosTerms(band Band, t float64, cos, sin []float64) {
	for i := range cos {
		w := 2 * math.Pi * band.Freq(i)
		sin[i], cos[i] = math.Sincos(w * t)
	}
}

// anchoredTerms is the kernel's recurrence written for one event across
// the whole band: math.Sincos at the first bin of every block, and each
// other bin its neighbour's term rotated by δω·t.
func anchoredTerms(band Band, t float64, cos, sin []float64) {
	ds, dc := math.Sincos(2 * math.Pi * band.DeltaF * t)
	for i := range cos {
		if i%block == 0 {
			w := 2 * math.Pi * band.Freq(i)
			sin[i], cos[i] = math.Sincos(w * t)
			continue
		}
		cos[i] = float64(cos[i-1]*dc) - float64(sin[i-1]*ds)
		sin[i] = float64(sin[i-1]*dc) + float64(cos[i-1]*ds)
	}
}

// refWindow is the analyser loop written event-major, one event at a
// time: the batch added and then the expired prefix removed, each event
// in order, with terms supplying each event's cos and sin per bin.
type refWindow struct {
	band     Band
	terms    func(band Band, t float64, cos, sin []float64)
	re, im   []float64
	cos, sin []float64
	horizon  simtime.Duration
	buf      []simtime.Time
}

func newRefWindow(band Band, h simtime.Duration, terms func(Band, float64, []float64, []float64)) *refWindow {
	n := band.Bins()
	return &refWindow{band: band, terms: terms, re: make([]float64, n), im: make([]float64, n),
		cos: make([]float64, n), sin: make([]float64, n), horizon: h}
}

func (r *refWindow) accumulate(t simtime.Time, sign float64) {
	r.terms(r.band, t.Seconds(), r.cos, r.sin)
	for i := range r.re {
		r.re[i] += sign * r.cos[i]
		r.im[i] -= sign * r.sin[i]
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

// binsOf copies inc's event count and accumulators in bin order.
func binsOf(inc *Incremental) bins {
	n := inc.band.Bins()
	b := bins{inc.events, make([]float64, n), make([]float64, n)}
	for i := range b.re {
		b.re[i], b.im[i] = inc.re[inc.at(i)], inc.im[inc.at(i)]
	}
	return b
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

// far offsets the far train: 1e6 s puts ω·t above 2^29 for the bins
// above ~85 Hz, where math.Sincos changes its argument reduction, and
// makes the step δω·t ~6e5 radians.
const far = simtime.Time(1_000_000 * simtime.Second)

// scenario is a train and the band it is analysed over.
type scenario struct {
	name  string
	band  Band
	train []simtime.Time
}

// referenceScenarios are the two replays the reference tests share: the
// default band from t = 0, and a band with FMin 0 (so bin 0's anchor
// is math.Sincos(0)) on the far train.
func referenceScenarios() []scenario {
	return []scenario{
		{"default band from t=0", DefaultBand, tuneTrain(0)},
		{"FMin 0 from 1e6 s", Band{FMin: 0, FMax: 100, DeltaF: 0.1}, tuneTrain(far)},
	}
}

func TestObserveMatchesEventMajorReference(t *testing.T) {
	if 2*math.Pi*DefaultBand.FMax*far.Seconds() < 1<<29 {
		t.Fatal("far train does not reach math.Sincos's large-argument reduction")
	}
	const h = 2 * simtime.Second
	for _, sc := range referenceScenarios() {
		ref := newRefWindow(sc.band, h, anchoredTerms)
		want := replayTune(sc.train, h, func(now simtime.Time, batch []simtime.Time) bins {
			ref.observe(now, batch)
			return bins{len(ref.buf), slices.Clone(ref.re), slices.Clone(ref.im)}
		})
		if last := want[len(want)-1]; last.events != 0 {
			t.Fatalf("%s: the late batch left %d events in the reference", sc.name, last.events)
		}
		for _, avx2 := range rowPaths(t) {
			w := NewWindow(sc.band, h)
			w.inc.avx2 = avx2
			got := replayTune(sc.train, h, func(now simtime.Time, batch []simtime.Time) bins {
				w.Observe(now, batch)
				return binsOf(w.inc)
			})
			for k := range want {
				if got[k].events != want[k].events {
					t.Fatalf("%s, %s rows, Observe %d: %d events, reference %d",
						sc.name, pathName(avx2), k, got[k].events, want[k].events)
				}
				for i := range want[k].re {
					if math.Float64bits(got[k].re[i]) != math.Float64bits(want[k].re[i]) ||
						math.Float64bits(got[k].im[i]) != math.Float64bits(want[k].im[i]) {
						t.Fatalf("%s, %s rows, Observe %d, bin %d: kernel (%v, %v), reference (%v, %v)",
							sc.name, pathName(avx2), k, i, got[k].re[i], got[k].im[i], want[k].re[i], want[k].im[i])
					}
				}
			}
		}
	}
}

// TestObserveStaysWithinBoundOfSincos bounds, at every Observe, how far
// the kernel's accumulators are from the per-bin math.Sincos loop's.
// The bound is derived from the arithmetic, with u = 2^-53 the unit
// roundoff, X = 2π·FMax·t and D = 2π·DeltaF·t for an event at t, and
// B = block. For a bin m places after its block's anchor b:
//
//   - Phase. The reference evaluates fl(fl(2π·Freq(i))·t); the kernel
//     fl(fl(2π·Freq(b))·t) + m·fl(fl(2π·DeltaF)·t). Freq(i) and
//     Freq(b) each round twice (i·DeltaF, then + FMin), 2π·Freq and
//     its product with t once each, on both sides: 8u·X in all. The
//     step rounds twice, and m ≤ B−1 copies of it add 2(B−1)·u·D.
//   - Value. math.Sincos is taken to be within 4u per component, the
//     4e-16 Go's own tests hold it to, at the anchor, the step and the
//     reference.
//     Each rotation rounds two products and a sum per component, ≤ 3u,
//     and carries the step's error: ≤ 10u in modulus. So ≤ 10B·u.
//
// A phase error φ moves a unit term by at most φ. An expired event's
// terms were added and subtracted with the same bits on either side,
// so only the events in the window count, plus the rounding of every
// add and subtract so far: ≤ u·A on each side, A bounding the
// accumulators' magnitude by the most events they ever held, plus one.
func TestObserveStaysWithinBoundOfSincos(t *testing.T) {
	const h = 2 * simtime.Second
	const u = 0x1p-53
	for _, sc := range referenceScenarios() {
		ref := newRefWindow(sc.band, h, sincosTerms)
		paths := rowPaths(t)
		windows := make([]*Window, len(paths))
		for p, avx2 := range paths {
			windows[p] = NewWindow(sc.band, h)
			windows[p].inc.avx2 = avx2
		}
		ops, peak := 0, 0
		var worst, share float64 // the largest deviation, and the largest share of its bound
		replayTune(sc.train, h, func(now simtime.Time, batch []simtime.Time) bins {
			before := len(ref.buf)
			peak = max(peak, before+len(batch))
			ref.observe(now, batch)
			ops += 2*len(batch) + before - len(ref.buf)

			bound := 2 * u * float64(peak+1) * float64(ops)
			for _, e := range ref.buf {
				x := 2 * math.Pi * sc.band.FMax * e.Seconds()
				d := 2 * math.Pi * sc.band.DeltaF * e.Seconds()
				bound += 8*u*x + 2*(block-1)*u*d + 10*block*u
			}
			for p, w := range windows {
				w.Observe(now, batch)
				got := binsOf(w.inc)
				for i := range ref.re {
					dev := max(math.Abs(got.re[i]-ref.re[i]), math.Abs(got.im[i]-ref.im[i]))
					if dev > bound {
						t.Fatalf("%s, %s rows, t=%v, bin %d: kernel deviates %.3g from per-bin math.Sincos, bound %.3g",
							sc.name, pathName(paths[p]), now, i, dev, bound)
					}
					worst, share = max(worst, dev), max(share, dev/bound)
				}
			}
			return bins{}
		})
		t.Logf("%s: largest deviation %.2g, at most %.2g of its bound", sc.name, worst, share)
	}
}

func TestObserveAllocatesNothingWhenWarm(t *testing.T) {
	w := NewWindow(DefaultBand, 2*simtime.Second)
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

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestAnchorsAVX2MatchSincos holds the anchors to math.Sincos bit for
// bit, the sign included:
//
//   - through Incremental.anchors on bands of 1 to 19 lanes, each with
//     FMin 0 (lane 0's argument is exactly 0) and with FMin above it, at
//     random t in [0, 8·10^5) s and their negatives, and at the last t
//     whose largest argument is below reduceThreshold and the first t
//     past it, which must take math.Sincos;
//   - through anchorsAVX2 with t = ±1, so that w is the argument: every
//     multiple k·π/4 for k < 64 and random ones up to the threshold,
//     each with its neighbours one ulp either side, signed zeros, the
//     smallest subnormal, the largest argument below the threshold, two
//     arguments that catch a fused Horner step, and ~10^6 random
//     arguments below the threshold, half spread evenly and half by
//     their logarithm from 1e-10 (1/8 as many under the race detector).
//     anchorsAVX2 must not write past len(w).
func TestAnchorsAVX2MatchSincos(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this host")
	}
	r := rng.New(13)
	for lanes := 1; lanes <= 19; lanes++ {
		for _, fmin := range []float64{0, r.Uniform(0.1, 5)} {
			band := Band{FMin: fmin, FMax: fmin + float64((lanes-1)*block+1+r.Intn(block-1))*0.1, DeltaF: 0.1}
			inc := NewIncremental(band)
			if inc.lanes != lanes {
				t.Fatalf("band %+v has %d lanes, want %d", band, inc.lanes, lanes)
			}
			check := func(sec, sign float64) {
				dc, ds := inc.anchors(sec, sign)
				for j, w := range inc.w[:lanes] {
					s, c := math.Sincos(w * sec)
					if !sameBits(inc.c[j], sign*c) || !sameBits(inc.s[j], sign*s) {
						t.Fatalf("%d lanes, FMin %v, t=%v s, sign %v, lane %d: anchors (%v, %v), math.Sincos (%v, %v)",
							lanes, fmin, sec, sign, j, inc.c[j], inc.s[j], sign*c, sign*s)
					}
				}
				s, c := math.Sincos(inc.w[lanes] * sec)
				if !sameBits(dc, c) || !sameBits(ds, s) {
					t.Fatalf("%d lanes, FMin %v, t=%v s, sign %v: step (%v, %v), math.Sincos (%v, %v)",
						lanes, fmin, sec, sign, dc, ds, c, s)
				}
			}
			for k := 0; k < 100; k++ {
				sec, sign := r.Uniform(0, 8e5), 1.0
				if r.Bool(0.5) {
					sign = -1
				}
				check(sec, sign)
				check(-sec, sign)
			}
			last := reduceThreshold / inc.wmax
			for inc.wmax*last >= reduceThreshold {
				last = math.Nextafter(last, 0)
			}
			for inc.wmax*math.Nextafter(last, math.Inf(1)) < reduceThreshold {
				last = math.Nextafter(last, math.Inf(1))
			}
			past := math.Nextafter(last, math.Inf(1))
			if !inc.avx2Anchors(last) || !inc.avx2Anchors(-last) || inc.avx2Anchors(past) || inc.avx2Anchors(-past) {
				t.Fatalf("%d lanes, FMin %v: threshold not between t=%v s and t=%v s", lanes, fmin, last, past)
			}
			for _, sec := range []float64{last, -last, past, -past} {
				check(sec, 1)
				check(sec, -1)
			}
		}
	}

	edges := []float64{0, math.Copysign(0, -1), 5e-324, math.Nextafter(reduceThreshold, 0),
		// Fusing the third Horner step into one multiply-add changes the
		// cosine here (the first) and the sine (the second); a search
		// with math.FMA found them among ~10^8 arguments. The random
		// arguments below catch a fused fourth or fifth step. A fused
		// first or second step changed none of ~5·10^8 arguments per
		// polynomial in the same search.
		math.Float64frombits(0x418109eca0e12ad7), math.Float64frombits(0x41b0aec3ab9a73f6)}
	for k := 0; k < 400; k++ {
		m := float64(k)
		if k >= 64 {
			m = math.Floor(r.Uniform(64, reduceThreshold*4/math.Pi))
		}
		x := m * (math.Pi / 4)
		edges = append(edges, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)))
	}
	const batch = 4096
	args := make([]float64, batch)
	c, s := make([]float64, batch+4), make([]float64, batch+4)
	rounds := 256 // ~10^6 arguments
	if raceEnabled {
		rounds = 32
	}
	for round := 0; round < rounds; round++ {
		n := copy(args, edges[min(round*batch, len(edges)):])
		for i := n; i < batch; i++ {
			if i%2 == 0 {
				args[i] = math.Pow(10, r.Uniform(-10, math.Log10(reduceThreshold)))
			} else {
				args[i] = r.Uniform(0, reduceThreshold)
			}
		}
		for _, tt := range []float64{1, -1} {
			for _, sign := range []float64{1, -1} {
				for i := batch; i < batch+4; i++ {
					c[i], s[i] = 42, 42
				}
				anchorsAVX2(args, c[:batch], s[:batch], tt, sign)
				for j, x := range args {
					ws, wc := math.Sincos(x * tt)
					if !sameBits(c[j], sign*wc) || !sameBits(s[j], sign*ws) {
						t.Fatalf("argument %v (%#x), sign %v: anchorsAVX2 (%v, %v), math.Sincos (%v, %v)",
							x*tt, math.Float64bits(x*tt), sign, c[j], s[j], sign*wc, sign*ws)
					}
				}
				for i := batch; i < batch+4; i++ {
					if c[i] != 42 || s[i] != 42 {
						t.Fatalf("anchorsAVX2 wrote past len(w) at index %d", i)
					}
				}
			}
		}
	}
}

// TestRowsAVX2MatchesGo holds rows on rowsAVX2 to rowsGo bit for bit on
// random accumulators and anchors, comparing re, im, c and s: every
// lane count from 1 to 40, so passes of sixteen (twice from 32 lanes),
// passes of four and a Go tail all run, each with every row count from
// 1 to 64, a stride with up to two lanes of padding, both signs, and
// events from t = 0 to 10^6 s.
func TestRowsAVX2MatchesGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this host")
	}
	r := rng.New(11)
	band := Band{FMin: r.Uniform(0, 5), FMax: 1000, DeltaF: 0.1}
	for lanes := 1; lanes <= 40; lanes++ {
		for n := 1; n <= block; n++ {
			stride := lanes + r.Intn(3)
			sec := 0.0
			if n > 1 {
				sec = math.Pow(10, r.Uniform(-3, 6))
			}
			sign := 1.0
			if r.Bool(0.5) {
				sign = -1
			}
			c, s := make([]float64, lanes), make([]float64, lanes)
			for j := range c {
				sj, cj := math.Sincos(2 * math.Pi * band.Freq(j*block) * sec)
				c[j], s[j] = sign*cj, sign*sj
			}
			ds, dc := math.Sincos(2 * math.Pi * band.DeltaF * sec)
			re, im := make([]float64, n*stride), make([]float64, n*stride)
			for i := range re {
				re[i], im[i] = r.Uniform(-500, 500), r.Uniform(-500, 500)
			}
			goRe, goIm, goC, goS := slices.Clone(re), slices.Clone(im), slices.Clone(c), slices.Clone(s)
			rows(re, im, c, s, dc, ds, n, stride, true)
			rows(goRe, goIm, goC, goS, dc, ds, n, stride, false)
			for _, pair := range [][2][]float64{{re, goRe}, {im, goIm}, {c, goC}, {s, goS}} {
				for i := range pair[0] {
					if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
						t.Fatalf("%d lanes, %d rows, stride %d, t=%v s, sign %v: AVX2 %v, Go %v at index %d",
							lanes, n, stride, sec, sign, pair[0][i], pair[1][i], i)
					}
				}
			}
		}
	}
}

// TestAVX2SelectedWhereTheHostHasIt fails when the host's CPU flags
// list AVX2 but the analyser runs the Go rows, or computes the anchors
// of a default-band event anywhere in [0, 8·10^5) s with math.Sincos,
// so a broken CPUID check or threshold cannot leave the tests
// exercising only the fallback.
func TestAVX2SelectedWhereTheHostHasIt(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the AVX2 anchors and rows are amd64 only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	host := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			host = slices.Contains(strings.Fields(flags), "avx2")
			break
		}
	}
	if !host {
		return
	}
	inc := NewIncremental(DefaultBand)
	if !inc.avx2 {
		t.Error("the host's CPU flags list AVX2, but the analyser runs the Go rows")
	}
	for _, sec := range []float64{0, 1, 30, 1e4, -1e4, 8e5} {
		if !inc.avx2Anchors(sec) {
			t.Errorf("the host's CPU flags list AVX2, but the anchors of an event at %v s run math.Sincos", sec)
		}
	}
}
