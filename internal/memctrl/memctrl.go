// Package memctrl simulates off-chip memory controllers: the shared
// resource whose queueing produces the memory contention studied in the
// paper. A controller owns one or more DRAM channels, each with a set of
// banks and a row-buffer; requests are address-interleaved across channels
// and serviced FCFS or FR-FCFS (row hits first), with distinct service
// times for row-buffer hits and misses.
//
// The controller is driven by the simulator's event queue
// (*eventq.Queue): Submit enqueues a request at the current time and the
// completion callback fires when service finishes. Submit decodes the
// address into channel, bank and row once, with a shift for each size that
// is a power of two; the scheduler compares those against each bank's open
// row and never divides. Queues are unbounded: the paper models no
// back-pressure, so every submission completes.
// Queueing delay — the quantity that grows with the number of active
// cores and saturates the M/M/1 model — emerges from channel occupancy
// rather than being assumed.
package memctrl

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/eventq"
)

// Discipline selects the scheduling policy of each channel.
type Discipline uint8

const (
	// FCFS services requests strictly in arrival order.
	FCFS Discipline = iota
	// FRFCFS (first-ready, first-come-first-served) prefers requests that
	// hit the currently open row, falling back to the oldest request.
	FRFCFS
)

// String implements fmt.Stringer.
func (d Discipline) String() string {
	switch d {
	case FCFS:
		return "fcfs"
	case FRFCFS:
		return "fr-fcfs"
	default:
		return "unknown"
	}
}

// Config describes a memory controller.
type Config struct {
	// Name identifies the controller in stats output ("MC0").
	Name string
	// Channels is the number of parallel DRAM channels (dual-channel = 2).
	Channels int
	// Banks is the number of DRAM banks per channel.
	Banks int
	// RowBytes is the DRAM row (page) size used for row-buffer hit
	// detection. Row r of an address lives in bank r % Banks.
	RowBytes uint64
	// LineBytes is the request granularity used for channel interleaving.
	LineBytes uint64
	// HitLatency is the service time (cycles) of a row-buffer hit.
	HitLatency uint64
	// MissLatency is the service time (cycles) of a row-buffer miss
	// (precharge + activate + CAS).
	MissLatency uint64
	// Discipline selects FCFS or FRFCFS.
	Discipline Discipline
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Channels < 1 {
		return fmt.Errorf("memctrl %s: channels %d < 1", c.Name, c.Channels)
	}
	if c.Banks < 1 {
		return fmt.Errorf("memctrl %s: banks %d < 1", c.Name, c.Banks)
	}
	if c.RowBytes == 0 || c.LineBytes == 0 {
		return fmt.Errorf("memctrl %s: row/line bytes must be positive", c.Name)
	}
	if c.HitLatency == 0 || c.MissLatency == 0 {
		return fmt.Errorf("memctrl %s: service latencies must be positive", c.Name)
	}
	if c.MissLatency < c.HitLatency {
		return fmt.Errorf("memctrl %s: miss latency %d < hit latency %d", c.Name, c.MissLatency, c.HitLatency)
	}
	return nil
}

// Stats aggregates controller activity.
type Stats struct {
	// Requests is the number of completed requests.
	Requests uint64
	// RowHits counts completed requests serviced from an open row.
	RowHits uint64
	// TotalWait is the sum of queueing delays (arrival to service start).
	TotalWait uint64
	// BusyCycles is the sum of service times: channel busy time summed
	// over channels.
	BusyCycles uint64
}

// AvgWait returns the mean queueing delay per completed request.
func (s Stats) AvgWait() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.TotalWait) / float64(s.Requests)
}

// AvgService returns the mean service time per completed request.
func (s Stats) AvgService() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(s.Requests)
}

// RowHitRatio returns the fraction of requests that hit an open row.
func (s Stats) RowHitRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Requests)
}

// Utilization returns channel utilization over elapsed cycles.
func (s Stats) Utilization(elapsed uint64, channels int) float64 {
	if elapsed == 0 || channels == 0 {
		return 0
	}
	return float64(s.BusyCycles) / (float64(elapsed) * float64(channels))
}

// request is one queued access, decoded at Submit: the FR-FCFS scan reads
// bank and row directly.
type request struct {
	bank    int
	row     int64
	arrival uint64
	done    func()
}

// reqRing is a growable power-of-two ring buffer of requests. Popping the
// head is O(1); the FR-FCFS mid-queue removal shifts only the entries ahead
// of the picked one. Once grown to the channel's high-water depth it never
// allocates again — the controller's part of the zero-alloc hot path.
type reqRing struct {
	buf  []request
	head int
	n    int
}

func (r *reqRing) len() int { return r.n }

func (r *reqRing) at(i int) *request {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

//simcheck:hotpath
func (r *reqRing) push(req request) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = req
	r.n++
}

func (r *reqRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]request, size)
	for i := 0; i < r.n; i++ {
		buf[i] = *r.at(i)
	}
	r.buf, r.head = buf, 0
}

// popAt removes and returns the i-th queued request, preserving the order
// of the rest. Entries before i shift one slot toward the tail so the
// common i==0 case is O(1).
//
//simcheck:hotpath
func (r *reqRing) popAt(i int) request {
	req := *r.at(i)
	for ; i > 0; i-- {
		*r.at(i) = *r.at(i - 1)
	}
	r.buf[r.head] = request{} // drop the callback reference
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return req
}

type channel struct {
	busy bool
	q    reqRing
	rows []int64 // open row per bank; -1 = closed
	// done is the completion callback of the request occupying the
	// channel, kept here so the prebuilt finish callback needs no
	// per-service closure.
	done     func()
	finishFn func()
}

// Controller is one memory controller instance.
type Controller struct {
	cfg   Config
	q     *eventq.Queue
	chans []channel
	stats Stats
	// The address decode: line and row divide an address, channels and
	// banks reduce a line and a row.
	line, row, channels, banks divisor
}

// divisor divides by d = odd << shift: a shift, then a hardware divide
// only when the odd part is not 1. A power-of-two d thus never divides,
// and any other d is still exact.
type divisor struct {
	d, odd uint64
	shift  uint
}

func newDivisor(d uint64) divisor {
	shift := uint(bits.TrailingZeros64(d))
	return divisor{d: d, odd: d >> shift, shift: shift}
}

// div returns n / d.
func (v divisor) div(n uint64) uint64 {
	n >>= v.shift
	if v.odd != 1 {
		n /= v.odd
	}
	return n
}

// mod returns n % d.
func (v divisor) mod(n uint64) uint64 { return n - v.div(n)*v.d }

// New builds a controller driven by the event queue q.
func New(cfg Config, q *eventq.Queue) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if q == nil {
		return nil, errors.New("memctrl: nil event queue")
	}
	c := &Controller{
		cfg:      cfg,
		q:        q,
		chans:    make([]channel, cfg.Channels),
		line:     newDivisor(cfg.LineBytes),
		row:      newDivisor(cfg.RowBytes),
		channels: newDivisor(uint64(cfg.Channels)),
		banks:    newDivisor(uint64(cfg.Banks)),
	}
	for i := range c.chans {
		rows := make([]int64, cfg.Banks)
		for b := range rows {
			rows[b] = -1
		}
		c.chans[i].rows = rows
		i := i
		c.chans[i].finishFn = func() { c.finish(i) }
	}
	return c, nil
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Occupancy returns the instantaneous number of requests in the system —
// queued plus in service — the quantity the telemetry sampler records and
// the M/M/1 model predicts as rho/(1-rho) in steady state.
func (c *Controller) Occupancy() int {
	n := 0
	for i := range c.chans {
		n += c.chans[i].q.len()
		if c.chans[i].busy {
			n++
		}
	}
	return n
}

// Submit enqueues a request for addr at the current simulated time. done is
// invoked exactly once, at the simulated completion time; Stats().RowHits
// counts the requests served from an open row.
//
//simcheck:hotpath
func (c *Controller) Submit(addr uint64, done func()) {
	chIdx := int(c.channels.mod(c.line.div(addr)))
	row := c.row.div(addr)
	ch := &c.chans[chIdx]
	ch.q.push(request{
		bank:    int(c.banks.mod(row)),
		row:     int64(row),
		arrival: c.q.Now(),
		done:    done,
	})
	if !ch.busy {
		c.startNext(chIdx)
	}
}

// startNext picks the next request on channel chIdx per the discipline and
// schedules its completion. It is a no-op while the channel is already
// serving a request (a completion callback may submit new work, which must
// queue rather than overlap).
//
//simcheck:hotpath
func (c *Controller) startNext(chIdx int) {
	ch := &c.chans[chIdx]
	if ch.busy || ch.q.len() == 0 {
		return
	}
	pick := 0
	if c.cfg.Discipline == FRFCFS {
		for i := 0; i < ch.q.len(); i++ {
			r := ch.q.at(i)
			if ch.rows[r.bank] == r.row {
				pick = i
				break
			}
		}
	}
	req := ch.q.popAt(pick)

	rowHit := ch.rows[req.bank] == req.row
	ch.rows[req.bank] = req.row

	service := c.cfg.MissLatency
	if rowHit {
		service = c.cfg.HitLatency
	}
	now := c.q.Now()
	c.stats.TotalWait += now - req.arrival
	c.stats.BusyCycles += service
	if rowHit {
		c.stats.RowHits++
	}
	ch.busy = true
	ch.done = req.done
	c.q.After(service, ch.finishFn)
}

// finish completes the in-service request on channel chIdx and pulls the
// next one. It runs from the channel's prebuilt event callback.
//
//simcheck:hotpath
func (c *Controller) finish(chIdx int) {
	ch := &c.chans[chIdx]
	c.stats.Requests++
	ch.busy = false
	done := ch.done
	ch.done = nil // drop the callback reference while idle
	done()
	c.startNext(chIdx)
}
