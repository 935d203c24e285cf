package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// WebServerConfig parameterises a bursty request server.
type WebServerConfig struct {
	// Name identifies the instance (task name, reports).
	Name string
	// MeanThink is the mean think time between arrival bursts
	// (exponentially distributed).
	MeanThink simtime.Duration
	// Burst is the mean number of requests released back-to-back per
	// burst (geometrically distributed, at least one).
	Burst int
	// MeanService is the mean per-request service demand
	// (exponentially distributed).
	MeanService simtime.Duration
	// Deadline is the per-request response deadline, measured from the
	// request's arrival; missed responses show up in Task().Stats().
	Deadline simtime.Duration
	// Sink is where the server's task starts tracing its
	// request/response system calls (nil: untraced).
	Sink SyscallSink
	// OnRequest receives one Request per completed response (nil:
	// unobserved).
	OnRequest RequestObserver
}

// DefaultWebServerConfig returns a heavy-traffic configuration: bursts
// of ~4 requests every ~20ms, 100ms response deadline. At the default
// 1.5ms mean service demand this is ~30% of a core on average, with
// burst peaks far above it.
func DefaultWebServerConfig(name string) WebServerConfig {
	return WebServerConfig{
		Name:        name,
		MeanThink:   20 * simtime.Millisecond,
		Burst:       4,
		MeanService: 1500 * simtime.Microsecond,
		Deadline:    100 * simtime.Millisecond,
	}
}

// WebServer is a bursty-arrival request server: exponentially
// distributed think times separate bursts of back-to-back requests,
// each an exponentially sized job on one schedulable task. The model
// for web-style heavy traffic — long idle gaps, then a queue of work —
// that gives the telemetry pipeline something spikier to chart than
// the periodic players.
type WebServer struct {
	app
	cfg    WebServerConfig
	r      *rng.Source
	served int
	bursts int
}

// NewWebServer prepares a web server; no requests arrive until Start.
func NewWebServer(sd *sched.Scheduler, r *rng.Source, cfg WebServerConfig) *WebServer {
	if cfg.MeanThink <= 0 {
		panic(fmt.Sprintf("workload: webserver %q: mean think time %v must be positive", cfg.Name, cfg.MeanThink))
	}
	if cfg.Burst < 1 {
		panic(fmt.Sprintf("workload: webserver %q: burst factor %d must be at least 1", cfg.Name, cfg.Burst))
	}
	if cfg.MeanService <= 0 {
		panic(fmt.Sprintf("workload: webserver %q: mean service demand %v must be positive", cfg.Name, cfg.MeanService))
	}
	s := &WebServer{app: newApp(sd, cfg.Name, cfg.Sink), cfg: cfg, r: r}
	if cfg.OnRequest != nil {
		s.task.OnJobComplete = observeCompletion(cfg.OnRequest, cfg.Deadline)
	}
	return s
}

// Served returns the number of requests released so far.
func (s *WebServer) Served() int { return s.served }

// Bursts returns the number of arrival bursts so far.
func (s *WebServer) Bursts() int { return s.bursts }

// Start begins the arrival process at the given instant (clamped to
// the present).
func (s *WebServer) Start(at simtime.Time) {
	s.repeat(s.start("WebServer", at), func() simtime.Time {
		s.bursts++
		// Geometric burst size with the configured mean: each extra
		// request follows with probability 1 - 1/Burst.
		n := 1
		for p := 1 - 1/float64(s.cfg.Burst); s.r.Bool(p) && n < 64*s.cfg.Burst; n++ {
		}
		now := s.lt.now()
		for i := 0; i < n; i++ {
			s.release(now)
		}
		gap := simtime.Duration(s.r.Exp(float64(s.cfg.MeanThink)))
		if gap < simtime.Microsecond {
			gap = simtime.Microsecond
		}
		return now.Add(gap)
	})
}

// release queues one request: an exponentially sized job with a
// response deadline, emitting a read() on accept and a write() when
// the response goes out — the burst structure the period analyser and
// the tracer see.
func (s *WebServer) release(now simtime.Time) {
	s.served++
	d := simtime.Duration(s.r.Exp(float64(s.cfg.MeanService)))
	if d < simtime.Microsecond {
		d = simtime.Microsecond
	}
	dl := simtime.Never
	if s.cfg.Deadline > 0 {
		dl = now.Add(s.cfg.Deadline)
	}
	j := s.task.NewJob(now, d, dl)
	s.syscall(j, 0, SysRead)
	s.syscall(j, d, SysWrite)
	s.task.Release(j)
}
