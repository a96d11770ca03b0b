package memctrl

import (
	"math/rand"
	"testing"

	"repro/internal/eventq"
)

// refController is the reference model for the differential test: the
// earlier controller algorithm, which queues the raw address and decodes
// bank and row from it on every scheduling decision. Controller decodes
// once at Submit; both must serve the same requests at the same times.
type refController struct {
	cfg   Config
	q     *eventq.Queue
	chans []refChannel
	stats Stats
}

type refRequest struct {
	addr    uint64
	arrival uint64
	done    func()
}

type refChannel struct {
	busy  bool
	queue []refRequest
	rows  []int64
}

func newRef(cfg Config, q *eventq.Queue) *refController {
	c := &refController{cfg: cfg, q: q, chans: make([]refChannel, cfg.Channels)}
	for i := range c.chans {
		c.chans[i].rows = make([]int64, cfg.Banks)
		for b := range c.chans[i].rows {
			c.chans[i].rows[b] = -1
		}
	}
	return c
}

func (c *refController) rowOf(addr uint64) int64 { return int64(addr / c.cfg.RowBytes) }

func (c *refController) bankOf(addr uint64) int {
	return int(uint64(c.rowOf(addr)) % uint64(c.cfg.Banks))
}

func (c *refController) Stats() Stats { return c.stats }

func (c *refController) Submit(addr uint64, done func()) {
	chIdx := int((addr / c.cfg.LineBytes) % uint64(c.cfg.Channels))
	ch := &c.chans[chIdx]
	ch.queue = append(ch.queue, refRequest{addr: addr, arrival: c.q.Now(), done: done})
	if !ch.busy {
		c.startNext(chIdx)
	}
}

func (c *refController) startNext(chIdx int) {
	ch := &c.chans[chIdx]
	if ch.busy || len(ch.queue) == 0 {
		return
	}
	pick := 0
	if c.cfg.Discipline == FRFCFS {
		for i, r := range ch.queue {
			if ch.rows[c.bankOf(r.addr)] == c.rowOf(r.addr) {
				pick = i
				break
			}
		}
	}
	req := ch.queue[pick]
	ch.queue = append(ch.queue[:pick], ch.queue[pick+1:]...)

	bank, row := c.bankOf(req.addr), c.rowOf(req.addr)
	rowHit := ch.rows[bank] == row
	ch.rows[bank] = row
	service := c.cfg.MissLatency
	if rowHit {
		service = c.cfg.HitLatency
		c.stats.RowHits++
	}
	c.stats.TotalWait += c.q.Now() - req.arrival
	c.stats.BusyCycles += service
	ch.busy = true
	c.q.After(service, func() {
		c.stats.Requests++
		ch.busy = false
		req.done()
		c.startNext(chIdx)
	})
}

// server is what the schedule drives: Controller or refController.
type server interface {
	Submit(addr uint64, done func())
	Stats() Stats
}

// completion is one finished request as the schedule observed it: its
// id, its time and the server's row-hit count when it completed.
type completion struct {
	id      int
	at      uint64
	rowHits uint64
}

// Geometry choices include non-powers of two so the decode's divisions
// are exercised with remainders.
var (
	fuzzRowBytes  = []uint64{64, 96, 2048, 3000, 4096, 1 << 30}
	fuzzLineBytes = []uint64{1, 48, 64, 100, 128}
	fuzzAddrScale = []uint64{1, 8, 64, 1000, 1 << 20}
)

// fuzzConfig decodes a controller geometry from the first six bytes:
// Channels 1–4, Banks 1–16, row and line sizes from the tables above,
// latencies and both disciplines. It returns the remaining bytes.
func fuzzConfig(data []byte) (Config, []byte) {
	var hdr [6]byte
	n := copy(hdr[:], data)
	hit := 1 + uint64(hdr[4]%32)
	cfg := Config{
		Name:        "fuzz",
		Channels:    1 + int(hdr[0]%4),
		Banks:       1 + int(hdr[1]%16),
		RowBytes:    fuzzRowBytes[int(hdr[2])%len(fuzzRowBytes)],
		LineBytes:   fuzzLineBytes[int(hdr[3])%len(fuzzLineBytes)],
		HitLatency:  hit,
		MissLatency: hit + uint64(hdr[5]%64),
		Discipline:  Discipline(hdr[5] >> 7),
	}
	return cfg, data[n:]
}

// replay drives s with the schedule encoded in ops, four bytes per step:
//
//	op%4 == 0: submit one request now
//	op%4 == 1: submit a same-cycle burst of 2–9 requests now
//	op%4 == 2: submit one request whose completion submits a follow-up
//	op%4 == 3: advance the clock by 0–63 cycles, serving what falls due
//
// The other three bytes pick the address (a 16-bit index times a scale).
// Requests are numbered in submission order; replay returns the
// completions in the order they happened.
func replay(s server, q *eventq.Queue, ops []byte) []completion {
	var out []completion
	next := 0
	var submit func(addr uint64, chain bool)
	submit = func(addr uint64, chain bool) {
		id := next
		next++
		s.Submit(addr, func() {
			out = append(out, completion{id: id, at: q.Now(), rowHits: s.Stats().RowHits})
			if chain {
				submit(addr+uint64(id)*64, false)
			}
		})
	}
	for ; len(ops) >= 4; ops = ops[4:] {
		op, scale := ops[0], fuzzAddrScale[int(ops[1])%len(fuzzAddrScale)]
		addr := (uint64(ops[2])<<8 | uint64(ops[3])) * scale
		switch op % 4 {
		case 0:
			submit(addr, false)
		case 1:
			for i := 0; i < 2+int(op>>2)%8; i++ {
				submit(addr+uint64(i)*scale, false)
			}
		case 2:
			submit(addr, true)
		case 3:
			q.RunUntil(q.Now() + uint64(op>>2))
		}
	}
	q.Run()
	return out
}

func diffController(t *testing.T, data []byte) {
	t.Helper()
	cfg, ops := fuzzConfig(data)
	var q, rq eventq.Queue
	c, err := New(cfg, &q)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	ref := newRef(cfg, &rq)
	got, want := replay(c, &q, ops), replay(ref, &rq, ops)
	if len(got) != len(want) {
		t.Fatalf("%+v: %d completions, reference %d", cfg, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%+v: completion %d = %+v, reference %+v", cfg, i, got[i], want[i])
		}
	}
	if c.Stats() != ref.Stats() {
		t.Fatalf("%+v: stats %+v, reference %+v", cfg, c.Stats(), ref.Stats())
	}
	if n := c.Occupancy(); n != 0 {
		t.Fatalf("%+v: %d requests left after drain", cfg, n)
	}
}

// FuzzControllerDifferential replays byte-encoded schedules through
// Controller and refController and requires the same (id, time, row-hit
// count) completion sequence and equal Stats.
func FuzzControllerDifferential(f *testing.F) {
	// FR-FCFS, 3 channels, 5 banks, 3000-byte rows: a burst over one row,
	// then interleaved rows with callback follow-ups.
	f.Add([]byte{2, 4, 3, 2, 9, 0x90, 1<<2 | 1, 0, 0, 1, 2, 1, 0, 40, 2, 1, 1, 7, 3 << 2, 0, 0, 0})
	// FCFS, one channel and bank: every request queues behind the last.
	f.Add([]byte{0, 0, 2, 2, 19, 40, 7<<2 | 1, 2, 0, 3, 2, 2, 0, 1, 63<<2 | 3, 0, 0, 0, 0, 3, 1, 1})
	// Line size 1 and large rows: consecutive addresses spread over
	// channels while sharing one row per bank.
	f.Add([]byte{3, 15, 5, 0, 1, 0xBF, 5<<2 | 1, 0, 0, 0, 2, 4, 0, 1, 1<<2 | 3, 0, 0, 0, 2, 0, 0, 2})
	rng := rand.New(rand.NewSource(4242))
	for k := 0; k < 24; k++ {
		data := make([]byte, 6+4*(8+rng.Intn(120)))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(diffController)
}
