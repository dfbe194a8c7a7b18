package load

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/objspace"
)

// spinThreshold is the tail of each inter-arrival wait the scheduler
// burns in a yield-spin instead of time.Sleep, trading a little CPU
// for issuing arrivals on (not ~0.5 ms after) their scheduled tick.
const spinThreshold = 500 * time.Microsecond

// Op executes one scenario operation on behalf of user (an index into
// the synthetic population). worker identifies the executing worker
// goroutine (stable in [0, Config.Workers)), so scenarios can keep
// per-worker state such as ack channels; rng is worker-private.
type Op func(worker, user int, rng *rand.Rand) error

// Config parameterizes one open-loop run.
type Config struct {
	// Rate is the target arrival rate in operations per second.
	Rate float64
	// Duration is the measured window; arrivals scheduled inside it
	// are recorded in the latency histogram.
	Duration time.Duration
	// Warmup runs the same schedule before the measured window with
	// recording off.
	Warmup time.Duration
	// Workers is the number of executor goroutines (default 16).
	Workers int
	// QueueCap bounds the admission queue; an arrival finding the
	// queue full is dropped and counted, not absorbed (default 256).
	QueueCap int
	// Population is the synthetic user population size (default 64).
	Population int
	// Theta is the zipf skew of user activity: 0 is uniform, ~1 is
	// classic web skew.
	Theta float64
	// Seed makes the arrival schedule's user draws reproducible.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.Population <= 0 {
		c.Population = 64
	}
	if c.Rate <= 0 {
		c.Rate = 1000
	}
}

// Counters is a point-in-time snapshot of the driver's accounting.
// The open-loop conservation law is:
//
//	Issued == Admitted + Dropped   (always, once the scheduler is idle)
//	Admitted == Completed + in-flight
//
// so at quiescence Issued == Completed + Dropped exactly. Errors
// counts completed operations whose Op returned non-nil; they are
// included in Completed.
type Counters struct {
	Issued    int64
	Admitted  int64
	Dropped   int64
	Completed int64
	Errors    int64
}

// InFlight returns admitted-but-unfinished operations.
func (c Counters) InFlight() int64 { return c.Admitted - c.Completed }

// Result is the outcome of one open-loop run.
type Result struct {
	Scenario string
	Config   Config

	// Whole-run accounting (warmup + measured).
	Counters Counters

	// Measured-window accounting: arrivals whose scheduled time fell
	// inside [warmup end, warmup end + duration).
	MeasuredIssued    int64
	MeasuredDropped   int64
	MeasuredCompleted int64

	// Hist holds the latency of measured completions, in nanoseconds,
	// from *scheduled* arrival time to completion — queueing delay
	// included, which is what makes the percentiles
	// coordinated-omission-safe.
	Hist *Hist

	// Elapsed is the wall time of the whole run.
	Elapsed time.Duration

	// FirstError is the first operation error observed, if any.
	FirstError error
}

// AchievedRate returns measured completions per second.
func (r *Result) AchievedRate() float64 {
	if r.Config.Duration <= 0 {
		return 0
	}
	return float64(r.MeasuredCompleted) / r.Config.Duration.Seconds()
}

// DropPct returns the measured drop percentage.
func (r *Result) DropPct() float64 {
	if r.MeasuredIssued == 0 {
		return 0
	}
	return 100 * float64(r.MeasuredDropped) / float64(r.MeasuredIssued)
}

// arrival is one scheduled operation.
type arrival struct {
	due      time.Time
	user     int
	measured bool
}

// Runner drives one scenario open-loop: a scheduler goroutine places
// arrivals on the ideal clock grid (1/Rate apart) into a bounded
// queue — dropping, not waiting, when the queue is full — and Workers
// goroutines execute them, stamping each completion against its
// scheduled arrival time.
type Runner struct {
	cfg Config
	op  Op

	issued, admitted, dropped atomic.Int64
	completed, errs           atomic.Int64
	measIssued, measDropped   atomic.Int64
	measCompleted             atomic.Int64
	firstErr                  atomic.Pointer[error]
}

// NewRunner builds a runner for op under cfg (defaults applied).
func NewRunner(cfg Config, op Op) *Runner {
	cfg.applyDefaults()
	return &Runner{cfg: cfg, op: op}
}

// Snapshot returns current accounting. Counters are read completed →
// dropped → admitted → issued, the reverse of the scheduler's update
// order, so Issued ≥ Admitted + Dropped and Admitted ≥ Completed hold
// in every snapshot even while the run is live.
func (r *Runner) Snapshot() Counters {
	c := Counters{}
	c.Errors = r.errs.Load()
	c.Completed = r.completed.Load()
	c.Dropped = r.dropped.Load()
	c.Admitted = r.admitted.Load()
	c.Issued = r.issued.Load()
	return c
}

// Run executes the schedule to completion: warmup then the measured
// window, then drains in-flight work and merges worker histograms.
func (r *Runner) Run(name string) *Result {
	cfg := r.cfg
	start := time.Now()
	queue := make(chan arrival, cfg.QueueCap)

	hists := make([]*Hist, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		hists[w] = NewHist()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w) + 1))
			for a := range queue {
				err := r.op(w, a.user, rng)
				lat := time.Since(a.due)
				if err != nil {
					r.errs.Add(1)
					if r.firstErr.Load() == nil {
						e := err
						r.firstErr.CompareAndSwap(nil, &e)
					}
				}
				if a.measured {
					r.measCompleted.Add(1)
					hists[w].RecordDuration(lat)
				}
				r.completed.Add(1)
			}
		}(w)
	}

	// Scheduler: arrivals sit on the ideal grid regardless of how far
	// behind the wall clock we are, so a stall shows up as queueing
	// latency on subsequent arrivals instead of a stretched schedule.
	rng := rand.New(rand.NewSource(cfg.Seed))
	pop := objspace.NewZipf(rng, cfg.Theta, cfg.Population)
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	measureStart := start.Add(cfg.Warmup)
	end := measureStart.Add(cfg.Duration)
	for due := start; due.Before(end); due = due.Add(interval) {
		// Sleep coarsely, then yield-spin the tail: time.Sleep routinely
		// overshoots by hundreds of microseconds, which would otherwise
		// be charged to every operation's latency (the generator being
		// late is indistinguishable from the system being slow). The
		// spin yields, so workers still run on a single CPU.
		if d := time.Until(due); d > spinThreshold {
			time.Sleep(d - spinThreshold)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		a := arrival{due: due, user: pop.Next(), measured: !due.Before(measureStart)}
		r.issued.Add(1)
		if a.measured {
			r.measIssued.Add(1)
		}
		// Single producer: if the queue has a free slot now it still
		// will when we send (workers only drain), so the admitted
		// counter can be bumped BEFORE the handoff — guaranteeing
		// Admitted ≥ Completed in every live snapshot.
		if len(queue) >= cfg.QueueCap {
			r.dropped.Add(1)
			if a.measured {
				r.measDropped.Add(1)
			}
		} else {
			r.admitted.Add(1)
			queue <- a
		}
	}
	close(queue)
	wg.Wait()

	h := NewHist()
	for _, wh := range hists {
		h.Merge(wh)
	}
	res := &Result{
		Scenario:          name,
		Config:            cfg,
		Counters:          r.Snapshot(),
		MeasuredIssued:    r.measIssued.Load(),
		MeasuredDropped:   r.measDropped.Load(),
		MeasuredCompleted: r.measCompleted.Load(),
		Hist:              h,
		Elapsed:           time.Since(start),
	}
	if p := r.firstErr.Load(); p != nil {
		res.FirstError = *p
	}
	return res
}

// CheckConservation verifies the quiescent accounting law on a
// finished result.
func (r *Result) CheckConservation() error {
	c := r.Counters
	if c.Issued != c.Admitted+c.Dropped {
		return fmt.Errorf("load: issued %d != admitted %d + dropped %d", c.Issued, c.Admitted, c.Dropped)
	}
	if c.Admitted != c.Completed {
		return fmt.Errorf("load: admitted %d != completed %d after drain", c.Admitted, c.Completed)
	}
	if r.MeasuredCompleted != r.Hist.Count() {
		return fmt.Errorf("load: measured completions %d != histogram samples %d", r.MeasuredCompleted, r.Hist.Count())
	}
	return nil
}
