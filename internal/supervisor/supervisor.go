// Package supervisor implements the paper's supervisor component
// (Sec. 4, Fig. 3): task controllers submit reservation requests
// (Q_req, T) and the supervisor enforces the EDF schedulability
// condition Σ Qi/Ti ≤ U_lub, compressing requests when they would
// saturate the CPU.
//
// The compression policy follows the AQuoSA architecture the paper
// builds on [23]: each client is guaranteed a minimum bandwidth, and
// the residual capacity is shared proportionally to the amount
// requested above the minimum (an elastic, weight-free compression).
package supervisor

import (
	"fmt"
	"sort"

	"repro/internal/simtime"
)

// Client identifies one task controller registered with the
// supervisor.
type Client struct {
	name string
	sup  *Supervisor

	minBW     float64
	requested float64 // last requested bandwidth
	granted   float64 // last granted bandwidth
	period    simtime.Duration
	active    bool
}

// Name returns the client's name.
func (c *Client) Name() string { return c.name }

// Supervisor enforces the global schedulability bound.
type Supervisor struct {
	ulub    float64
	clients []*Client

	grants      int
	compressed  int // requests granted at reduced bandwidth
	rejected    int
	lastPressed bool
}

// New returns a supervisor enforcing Σ Q/T ≤ ulub. The paper uses
// ulub = 1 (Eq. 1); practical deployments leave headroom for
// non-reserved work, so any value in (0, 1] is accepted.
func New(ulub float64) *Supervisor {
	if ulub <= 0 || ulub > 1 {
		panic(fmt.Sprintf("supervisor: U_lub %v out of (0,1]", ulub))
	}
	return &Supervisor{ulub: ulub}
}

// ULub returns the enforced utilisation bound.
func (s *Supervisor) ULub() float64 { return s.ulub }

// Register adds a client with the given guaranteed minimum bandwidth.
// Registration fails (returns nil and false) when the minimums of all
// clients would alone exceed the bound — the admission-control step.
func (s *Supervisor) Register(name string, minBW float64) (*Client, bool) {
	if minBW < 0 {
		minBW = 0
	}
	var minSum float64
	for _, c := range s.clients {
		minSum += c.minBW
	}
	if minSum+minBW > s.ulub {
		s.rejected++
		return nil, false
	}
	c := &Client{name: name, sup: s, minBW: minBW}
	s.clients = append(s.clients, c)
	return c, true
}

// Unregister removes a client, releasing its bandwidth.
func (s *Supervisor) Unregister(c *Client) {
	for i, x := range s.clients {
		if x == c {
			s.clients = append(s.clients[:i], s.clients[i+1:]...)
			c.sup = nil
			return
		}
	}
}

// Request submits a reservation request (budget, period) for the
// client and returns the granted budget for the same period. If the
// sum of requests fits under U_lub the request is granted in full
// (Q_s = Q_req); otherwise every active client is compressed.
//
// Note that compression re-evaluates *all* clients; the supervisor
// adjusts only the caller's grant here, and the surrounding machinery
// applies other clients' new grants at their own next activation —
// matching the asynchronous task controllers of the paper.
func (c *Client) Request(budget, period simtime.Duration) simtime.Duration {
	if c.sup == nil {
		panic("supervisor: request from unregistered client")
	}
	if period <= 0 || budget < 0 {
		panic(fmt.Sprintf("supervisor: invalid request Q=%v T=%v", budget, period))
	}
	c.requested = float64(budget) / float64(period)
	c.period = period
	c.active = true
	c.sup.recompute()
	c.sup.grants++
	if c.granted < c.requested {
		c.sup.compressed++
	}
	return simtime.Duration(c.granted * float64(period))
}

// Release marks the client inactive, freeing its bandwidth (a legacy
// application that went quiet).
func (c *Client) Release() {
	c.requested = 0
	c.granted = 0
	c.active = false
	if c.sup != nil {
		c.sup.recompute()
	}
}

// Granted returns the client's current granted bandwidth.
func (c *Client) Granted() float64 { return c.granted }

// Requested returns the client's current requested bandwidth.
func (c *Client) Requested() float64 { return c.requested }

// recompute redistributes bandwidth across all active clients:
// grant_i = min_i + residual * (req_i - min_i) / Σ(req - min),
// with grants never exceeding requests.
func (s *Supervisor) recompute() {
	var reqSum float64
	for _, c := range s.clients {
		if c.active {
			reqSum += c.requested
		}
	}
	if reqSum <= s.ulub {
		s.lastPressed = false
		for _, c := range s.clients {
			if c.active {
				c.granted = c.requested
			}
		}
		return
	}
	s.lastPressed = true
	// Guaranteed floors first (capped by the request itself).
	var floorSum float64
	for _, c := range s.clients {
		if !c.active {
			continue
		}
		floor := c.minBW
		if floor > c.requested {
			floor = c.requested
		}
		c.granted = floor
		floorSum += floor
	}
	residual := s.ulub - floorSum
	if residual <= 0 {
		return
	}
	// Distribute the residual proportionally to demand above floor,
	// iterating because a client capped at its request returns the
	// excess to the pool. Sorting by headroom makes one pass per
	// saturated client sufficient.
	type slot struct {
		c        *Client
		headroom float64
	}
	var slots []slot
	var claimSum float64
	for _, c := range s.clients {
		if !c.active {
			continue
		}
		if h := c.requested - c.granted; h > 0 {
			slots = append(slots, slot{c, h})
			claimSum += h
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].headroom < slots[j].headroom })
	for _, sl := range slots {
		if claimSum <= 0 || residual <= 0 {
			break
		}
		share := residual * sl.headroom / claimSum
		if share > sl.headroom {
			share = sl.headroom
		}
		sl.c.granted += share
		residual -= share
		claimSum -= sl.headroom
	}
}

// TotalGranted returns the sum of granted bandwidths.
func (s *Supervisor) TotalGranted() float64 {
	var sum float64
	for _, c := range s.clients {
		if c.active {
			sum += c.granted
		}
	}
	return sum
}

// Saturated reports whether the last recompute had to compress.
func (s *Supervisor) Saturated() bool { return s.lastPressed }

// Stats returns (grants, compressed grants, rejected registrations).
func (s *Supervisor) Stats() (grants, compressed, rejected int) {
	return s.grants, s.compressed, s.rejected
}
