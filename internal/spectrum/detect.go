package spectrum

import "math"

// DetectConfig parameterises the peak-detection heuristic of
// Sec. 4.3.1.
type DetectConfig struct {
	// Alpha discards candidate peaks whose amplitude is below Alpha
	// times the reference amplitude (step 3). Zero keeps every local
	// maximum (the costly variant of Figure 8a).
	//
	// The paper's text says "α times its average value S̄", but with a
	// mean-relative threshold α=20% prunes almost nothing (the noise
	// floor of a Dirac-train spectrum sits *at* the mean), which
	// contradicts the ~4x cost reduction its Figure 8 shows and the
	// max-normalised presentation of its Figure 10. We therefore read
	// the reference as the spectrum maximum; DESIGN.md records the
	// interpretation.
	Alpha float64
	// Epsilon is the tolerance, in Hz, around integer multiples of a
	// candidate when accumulating harmonic support (step 5).
	Epsilon float64
	// KMax bounds the number of harmonics considered per candidate
	// ("set to 10 in the experiments").
	KMax int
	// Scoring selects the step-5 harmonic-support rule; the default is
	// the robust weighted-max scoring (see Detect). LiteralSum is the
	// paper's text verbatim, kept for the scoring ablation.
	Scoring ScoringRule
	// MinPeakToMean implements step 4's "declare the application as
	// non-periodic" under the max-relative α reading: with α ≤ 1 the
	// strongest peak always survives its own threshold, so
	// aperiodicity needs a separate criterion. The extreme value of a
	// pure-noise (Rayleigh) amplitude spectrum over ~10^3 bins sits
	// near 3× the mean amplitude; a genuinely periodic trace measures
	// ≥3.9 even at 200ms of tracing (Figure 10). A spectrum whose
	// maximum is below MinPeakToMean times the mean is declared
	// non-periodic. Zero disables the check.
	MinPeakToMean float64
}

// ScoringRule selects how a candidate's harmonic support Σi is
// accumulated in step 5.
type ScoringRule int

const (
	// WeightedMax takes the maximum amplitude in each ε-window,
	// weights window h by 1/h, normalises by the weights and requires
	// a 3% margin to displace a lower-frequency candidate. This is the
	// reproduction's default (DESIGN.md §6 item 2).
	WeightedMax ScoringRule = iota
	// LiteralSum is the paper's text verbatim: the plain sum of the
	// spectrum over every ε-window at integer multiples of the
	// candidate, highest sum wins.
	LiteralSum
)

// String implements fmt.Stringer.
func (r ScoringRule) String() string {
	if r == LiteralSum {
		return "literal-sum"
	}
	return "weighted-max"
}

// DefaultDetect matches the configuration used in the paper's
// evaluation: α=20%, ε=0.5 Hz, k_max=10, plus the peak-to-mean
// aperiodicity criterion at 3.3.
var DefaultDetect = DetectConfig{Alpha: 0.20, Epsilon: 0.5, KMax: 10, MinPeakToMean: 3.3}

// Detection is the result of the peak heuristic.
type Detection struct {
	// Periodic is false when no candidate survives the α threshold
	// (step 4: "declare the application as non-periodic").
	Periodic bool
	// Frequency is the detected fundamental, in Hz (0 if aperiodic).
	Frequency float64
	// Score is the harmonic-support sum Σi of the winning candidate.
	Score float64
	// Candidates holds the surviving candidate frequencies, by
	// increasing frequency.
	Candidates []float64
	// Scanned is the number of spectrum elements examined (E in
	// Eq. 5), the paper's complexity metric for the heuristic.
	Scanned int64
}

// Detect runs the paper's six-step peak-detection heuristic on the
// spectrum.
func Detect(s *Spectrum, cfg DetectConfig) Detection {
	return new(Detector).Detect(s, cfg)
}

// A Detector runs Detect on storage it keeps from call to call, so a
// warm Detector allocates nothing. The zero value is ready to use.
type Detector struct {
	peaks      []int
	candidates []float64
}

// Detect is the package's Detect on the Detector's storage: the
// returned Candidates are overwritten by the next call.
func (dt *Detector) Detect(s *Spectrum, cfg DetectConfig) Detection {
	if cfg.KMax <= 0 {
		cfg.KMax = DefaultDetect.KMax
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = s.Band.DeltaF
	}
	n := len(s.Amp)
	det := Detection{}
	if n < 3 || s.Events < 3 {
		// Fewer than three events cannot establish a period; with one
		// event the amplitude is identically 1 and any "peaks" are
		// floating-point dust.
		return det
	}

	// Steps 1-2: local maxima of the sampled amplitude spectrum,
	// ordered by frequency. Scanning the whole transform costs F
	// element visits (first term of Eq. 5).
	det.Scanned += int64(n)
	peaks := dt.peaks[:0]
	for i := 1; i < n-1; i++ {
		if s.Amp[i] > s.Amp[i-1] && s.Amp[i] >= s.Amp[i+1] {
			peaks = append(peaks, i)
		}
	}
	dt.peaks = peaks

	// Step 3: discard peaks below α times the maximum amplitude (see
	// the Alpha field for why the maximum, not the mean).
	maxAmp := 0.0
	for _, a := range s.Amp {
		if a > maxAmp {
			maxAmp = a
		}
	}
	// Step 4 (aperiodicity): a spectrum whose strongest peak barely
	// rises above the mean is indistinguishable from noise.
	if cfg.MinPeakToMean > 0 && maxAmp < cfg.MinPeakToMean*s.Mean() {
		det.Scanned += int64(n)
		return det
	}
	threshold := cfg.Alpha * maxAmp
	kept := peaks[:0]
	for _, i := range peaks {
		if s.Amp[i] >= threshold {
			kept = append(kept, i)
		}
	}
	peaks = kept

	// Step 4: no candidate -> the signal has no periodic structure.
	if len(peaks) == 0 {
		return det
	}

	// Step 5: for each candidate ωi accumulate the spectrum around up
	// to KMax integer multiples hωi within the band, with tolerance ε.
	//
	// Deviation from the paper's literal text, documented in DESIGN.md:
	// the raw sum over harmonic windows is biased towards spurious
	// sub-harmonics — a candidate at f0/3 collects every true peak of
	// f0 (its 3rd, 6th, 9th multiples) *plus* six windows of noise, so
	// it always outscores f0. We instead take the maximum amplitude
	// inside each ε-window, weight window h by 1/h, and normalise by
	// the weights examined. A genuine fundamental keeps a high score
	// because its own peak carries the largest weight; a sub-harmonic
	// dilutes itself with heavily-weighted noise windows. The residual
	// failure mode is over-estimation towards integer multiples when a
	// harmonic genuinely rivals the fundamental, which is exactly the
	// error the paper reports (Table 2: "a frequency which is an
	// integer multiple of the actual one").
	best, bestScore := -1, math.Inf(-1)
	halfBins := int(math.Round(cfg.Epsilon / s.Band.DeltaF))
	det.Candidates = dt.candidates[:0]
	for _, pi := range peaks {
		fi := s.Band.Freq(pi)
		det.Candidates = append(det.Candidates, fi)
		var score, weight float64
		for h := 1; h <= cfg.KMax; h++ {
			fh := float64(h) * fi
			if fh > s.Band.FMax+cfg.Epsilon {
				break
			}
			center := int(math.Round((fh - s.Band.FMin) / s.Band.DeltaF))
			wmax, wsum := 0.0, 0.0
			for k := center - halfBins; k <= center+halfBins; k++ {
				if k < 0 || k >= n {
					continue
				}
				if s.Amp[k] > wmax {
					wmax = s.Amp[k]
				}
				wsum += s.Amp[k]
				det.Scanned++
			}
			if cfg.Scoring == LiteralSum {
				score += wsum
			} else {
				score += wmax / float64(h)
				weight += 1 / float64(h)
			}
		}
		if cfg.Scoring == WeightedMax && weight > 0 {
			score /= weight
		}
		// Candidates are visited in increasing frequency; a higher
		// candidate displaces a lower one only when it wins decisively.
		// For a clean train with many in-band harmonics the fundamental
		// and its multiples score within noise of each other, and the
		// tie must go to the fundamental; under load (Table 2) the
		// dilated-burst structure genuinely out-scores it and the
		// harmonic lock still happens. The literal rule takes a plain
		// argmax, as the paper's step 6 states.
		margin := 1.03
		if cfg.Scoring == LiteralSum {
			margin = 1.0
		}
		if best == -1 || score > bestScore*margin {
			bestScore = score
			best = pi
		}
	}

	dt.candidates = det.Candidates

	// Step 6: the candidate with the highest harmonic support wins.
	det.Periodic = true
	det.Frequency = s.Band.Freq(best)
	det.Score = bestScore
	return det
}
