// Package feedback implements the paper's bandwidth controllers: the
// LFS++ scheme of Sec. 4.4 (a per-job computation-time estimate fed to
// a quantile predictor, inflated by a spread factor) and the original
// LFS baseline of [2] (a coarse binary saturation feedback), which the
// paper compares against in Figs. 13-14.
package feedback

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/simtime"
)

// Predictor estimates the next per-period computation time from the
// history of observed ones.
type Predictor interface {
	// Observe feeds one measured per-period computation time.
	Observe(c simtime.Duration)
	// Predict returns the estimate for the next period. With no
	// observations it returns 0.
	Predict() simtime.Duration
	// Reset discards the history (used when the detected task period
	// changes, invalidating the per-period scaling of old samples).
	Reset()
	// Name identifies the predictor in reports and benchmarks.
	Name() string
}

// QuantilePredictor returns the p-th quantile of the last N samples.
// The paper implements exactly this: "takes a set of past observed N
// samples, and outputs the estimated p-th quantile of the computation
// times distribution", with p expressed as (N-j)/N. p=1 is the
// maximum; with N=16, p=0.9375 is the second maximum.
type QuantilePredictor struct {
	P float64
	N int

	ring   []simtime.Duration
	sorted []simtime.Duration // Predict's scratch copy of ring
	next   int
	full   bool
}

// NewQuantilePredictor returns a quantile predictor over the last n
// samples. It panics for invalid parameters.
func NewQuantilePredictor(p float64, n int) *QuantilePredictor {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("feedback: quantile %v out of (0,1]", p))
	}
	if n <= 0 {
		panic("feedback: window size must be positive")
	}
	return &QuantilePredictor{P: p, N: n, ring: make([]simtime.Duration, 0, n), sorted: make([]simtime.Duration, 0, n)}
}

// Observe implements Predictor.
func (q *QuantilePredictor) Observe(c simtime.Duration) {
	if len(q.ring) < q.N {
		q.ring = append(q.ring, c)
		return
	}
	q.ring[q.next] = c
	q.next = (q.next + 1) % q.N
	q.full = true
}

// Predict implements Predictor: the j-th largest of the retained
// samples with j = round((1-P)*N), so P=1 yields the maximum and,
// with N=16, P=0.9375 the second maximum.
func (q *QuantilePredictor) Predict() simtime.Duration {
	n := len(q.ring)
	if n == 0 {
		return 0
	}
	q.sorted = append(q.sorted[:0], q.ring...)
	slices.Sort(q.sorted)
	j := int(float64(q.N)*(1-q.P) + 0.5) // how many maxima to skip
	idx := n - 1 - j
	if idx < 0 {
		idx = 0
	}
	return q.sorted[idx]
}

// Reset implements Predictor.
func (q *QuantilePredictor) Reset() {
	q.ring = q.ring[:0]
	q.next = 0
	q.full = false
}

// Name implements Predictor.
func (q *QuantilePredictor) Name() string {
	return fmt.Sprintf("quantile(p=%.4g,N=%d)", q.P, q.N)
}

// Samples returns how many observations are retained.
func (q *QuantilePredictor) Samples() int { return len(q.ring) }

// NewMaxPredictor returns the p=1 quantile predictor (the maximum of
// the last n samples).
func NewMaxPredictor(n int) *QuantilePredictor { return NewQuantilePredictor(1, n) }

// EWMAPredictor is an exponentially weighted moving average with an
// additive guard of K standard deviations, an alternative the paper
// alludes to ("the predictor P can be implemented in different ways").
type EWMAPredictor struct {
	Alpha float64 // smoothing weight of the newest sample
	K     float64 // safety margin in standard deviations

	mean, varEst float64
	seen         bool
}

// NewEWMAPredictor returns an EWMA predictor. It panics for invalid
// alpha.
func NewEWMAPredictor(alpha, k float64) *EWMAPredictor {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("feedback: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMAPredictor{Alpha: alpha, K: k}
}

// Observe implements Predictor.
func (e *EWMAPredictor) Observe(c simtime.Duration) {
	v := float64(c)
	if !e.seen {
		e.mean = v
		e.varEst = 0
		e.seen = true
		return
	}
	diff := v - e.mean
	e.mean += e.Alpha * diff
	e.varEst = (1-e.Alpha)*e.varEst + e.Alpha*diff*diff
}

// Predict implements Predictor.
func (e *EWMAPredictor) Predict() simtime.Duration {
	if !e.seen {
		return 0
	}
	std := 0.0
	if e.varEst > 0 {
		std = math.Sqrt(e.varEst)
	}
	return simtime.Duration(e.mean + e.K*std)
}

// Reset implements Predictor.
func (e *EWMAPredictor) Reset() { e.seen = false; e.mean = 0; e.varEst = 0 }

// Name implements Predictor.
func (e *EWMAPredictor) Name() string {
	return fmt.Sprintf("ewma(a=%.3g,k=%.3g)", e.Alpha, e.K)
}
