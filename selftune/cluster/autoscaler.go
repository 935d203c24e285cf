package cluster

// The autoscaler is the paper's adaptive-reservation loop lifted to
// cluster scope: where a Tuner grows a task's CBS budget when the
// budget keeps exhausting and shrinks it when slack accumulates, the
// autoscaler grows a realm's fleet reservation when its front-end
// queue keeps backing up and shrinks it when the reservation runs
// mostly idle. The hysteresis (Sustain) plays the role of the tuner's
// sampling interval: one noisy observation never moves capacity.

import (
	"fmt"

	"repro/selftune"
)

// AutoscalerConfig parameterises the per-realm reservation controller.
type AutoscalerConfig struct {
	// Every is the decision interval (default 1s of cluster time).
	// Rounded up to a whole number of cluster ticks.
	Every selftune.Duration
	// QueueHigh is the grow trigger: a decision interval counts toward
	// growth while the realm's queue depth is at least QueueHigh
	// (default 4).
	QueueHigh int
	// UtilLow is the shrink trigger: a decision interval counts toward
	// shrinkage while used/reservation is below UtilLow (default 0.5).
	UtilLow float64
	// Sustain is how many consecutive decision intervals a trigger must
	// hold before capacity moves — the hysteresis guard (default 2).
	Sustain int
	// GrowFactor multiplies the reservation on a grow decision
	// (default 1.6), bounded by the realm's MaxReservation and the
	// fleet's unreserved headroom.
	GrowFactor float64
	// ShrinkFactor multiplies the reservation on a shrink decision
	// (default 0.85), bounded below by the realm's initial reservation
	// (the static promise) and its current usage.
	ShrinkFactor float64
}

// DefaultAutoscalerConfig returns the canonical controller setting.
func DefaultAutoscalerConfig() AutoscalerConfig {
	return AutoscalerConfig{
		Every:        1 * selftune.Second,
		QueueHigh:    4,
		UtilLow:      0.5,
		Sustain:      2,
		GrowFactor:   1.6,
		ShrinkFactor: 0.85,
	}
}

// validate fills defaults and rejects nonsense.
func (cfg *AutoscalerConfig) validate() error {
	def := DefaultAutoscalerConfig()
	if cfg.Every == 0 {
		cfg.Every = def.Every
	}
	if cfg.Every < 0 {
		return fmt.Errorf("cluster: autoscaler interval %v must be positive", cfg.Every)
	}
	if cfg.QueueHigh == 0 {
		cfg.QueueHigh = def.QueueHigh
	}
	if cfg.QueueHigh < 1 {
		return fmt.Errorf("cluster: autoscaler QueueHigh %d must be at least 1", cfg.QueueHigh)
	}
	if cfg.UtilLow == 0 {
		cfg.UtilLow = def.UtilLow
	}
	if cfg.UtilLow < 0 || cfg.UtilLow >= 1 {
		return fmt.Errorf("cluster: autoscaler UtilLow %v out of [0,1)", cfg.UtilLow)
	}
	if cfg.Sustain == 0 {
		cfg.Sustain = def.Sustain
	}
	if cfg.Sustain < 1 {
		return fmt.Errorf("cluster: autoscaler Sustain %d must be at least 1", cfg.Sustain)
	}
	if cfg.GrowFactor == 0 {
		cfg.GrowFactor = def.GrowFactor
	}
	if cfg.GrowFactor <= 1 {
		return fmt.Errorf("cluster: autoscaler GrowFactor %v must exceed 1", cfg.GrowFactor)
	}
	if cfg.ShrinkFactor == 0 {
		cfg.ShrinkFactor = def.ShrinkFactor
	}
	if cfg.ShrinkFactor <= 0 || cfg.ShrinkFactor >= 1 {
		return fmt.Errorf("cluster: autoscaler ShrinkFactor %v out of (0,1)", cfg.ShrinkFactor)
	}
	return nil
}

// autoscale runs one decision interval over every realm.
func (c *Cluster) autoscale() {
	cfg := c.opt.scaler
	for _, r := range c.realms {
		queueHigh := len(r.queue) >= cfg.QueueHigh
		utilLow := r.reservation > 0 && r.used/r.reservation < cfg.UtilLow
		switch {
		case queueHigh:
			r.growStreak++
			r.shrinkStreak = 0
		case utilLow:
			r.shrinkStreak++
			r.growStreak = 0
		default:
			r.growStreak, r.shrinkStreak = 0, 0
		}
		if r.growStreak >= cfg.Sustain {
			want := r.reservation * cfg.GrowFactor
			if max := r.maxReservation(); want > max {
				want = max
			}
			grant := want - r.reservation
			if free := c.Capacity() - c.Reserved(); grant > free {
				grant = free
			}
			if grant > 1e-9 {
				r.reservation += grant
				r.grows++
			}
			r.growStreak = 0
		} else if r.shrinkStreak >= cfg.Sustain {
			want := r.reservation * cfg.ShrinkFactor
			if want < r.floor {
				want = r.floor
			}
			if want < r.used {
				want = r.used
			}
			if want < r.reservation-1e-9 {
				r.reservation = want
				r.shrinks++
			}
			r.shrinkStreak = 0
		}
	}
}
