package sim

import (
	"repro/internal/eventq"
	"repro/internal/machine"
	"repro/internal/trace"
)

const (
	// batchLimit bounds how many cycles a core may advance per simulation
	// event while executing cache hits.
	batchLimit = 2000
	// pageShift is log2 of the page-placement granularity (4 KiB pages).
	pageShift = 12
	// denseRegions and densePages bound the dense page-home tables: the
	// first 4 GiB of each of the first 64 trace.RegionBits regions. Every
	// workload array starts at a region's base and fits in that span,
	// except MG's coarser grids (4 GiB apart); other pages go to a map.
	denseRegions = 64
	densePages   = 1 << 20
)

// thread is one program thread: a reference stream plus execution state.
type thread struct {
	id     int
	core   *core
	stream trace.Stream
	// run is the stream's current run, which step reads in place; pos
	// indexes its next ref.
	run         []trace.Ref
	pos         int
	outstanding int  // off-chip requests in flight
	blocked     bool // waiting on a dependent load, an MSHR slot or a barrier
	waitDep     bool // blocked specifically on a dependent load
	wantSlot    bool // blocked waiting for any MSHR slot
	atBarrier   bool // blocked at a synchronization barrier
	barrierSeq  int  // barriers passed (the ordinal of the next one)
	blockStart  uint64
	pending     *memReq // request waiting for an MSHR slot (valid when wantSlot)
	finished    bool
	arriveFn    func() // prebuilt barrier-arrival event callback
	st          ThreadStats
}

// core is one logical core: a run queue of pinned threads multiplexed
// round-robin.
type core struct {
	id          int
	socket      int
	threads     []*thread
	cur         int // index into threads of the running thread
	quantumLeft uint64
	stepQueued  bool   // a step event is scheduled or executing
	stepFn      func() // prebuilt step event callback
}

// engine wires machine, threads and cores to the event queue.
//
// The hot path is allocation-free in steady state: every event callback the
// engine schedules is either prebuilt once (per-core step, per-thread
// barrier arrival, barrier recheck) or owned by a pooled memReq whose
// closures are created when the request object is first allocated and live
// for as long as the object cycles through the free list.
type engine struct {
	cfg     Config
	m       *machine.Machine
	q       *eventq.Queue
	threads []*thread
	cores   []*core
	// l1Latency is subtracted from hit latencies: first-level hits are
	// considered fully pipelined (no stall).
	l1Latency uint64

	// Page placement. pageHome[r][p] is 1 + the home controller of page p
	// of region r (0 while the page is untouched); each table grows to its
	// highest touched page, below densePages. farHome maps the page
	// numbers of every other address to their home controller.
	pageHome [denseRegions][]uint16
	farHome  map[uint64]int
	// firstTouchRR rotates among a socket's local controllers.
	firstTouchRR []int
	// localMCs caches Spec.LocalMCs per socket: homeMC runs once per
	// off-chip request and must not allocate.
	localMCs [][]int
	// hopTable[socket][mc] is hopsFrom(socket, mc), filled once so launch
	// does no topology walk per request.
	hopTable [][]int
	// interleaveRR rotates over activeMCs for the Interleave policy.
	interleaveRR int
	activeMCs    []int

	// Barrier bookkeeping: arrivals per barrier ordinal, plus the count of
	// finished threads (which count as arrived everywhere).
	barrierArrivals map[int]int
	finishedThreads int
	recheckFn       func() // prebuilt recheckBarriers event callback

	// Coherence directory (Config.Coherence): per cache line, bits 0-15
	// record which sockets hold a copy. A store invalidates every other
	// socket's copies.
	directory     map[uint64]uint16
	invalidations uint64

	// missWindows counts off-chip requests per Config.MissWindow cycles;
	// it stays nil when the window is off.
	missWindows []uint64

	// reqFree is the memReq free list. In-flight requests are bounded by
	// threads x MSHRs, so the list reaches a small steady-state size and
	// then no request is ever allocated again.
	reqFree []*memReq
}

func newEngine(cfg Config, m *machine.Machine, q *eventq.Queue) *engine {
	e := &engine{
		cfg:             cfg,
		m:               m,
		q:               q,
		farHome:         make(map[uint64]int),
		firstTouchRR:    make([]int, cfg.Spec.Sockets),
		barrierArrivals: make(map[int]int),
	}
	e.recheckFn = e.recheckBarriers
	if cfg.Coherence {
		e.directory = make(map[uint64]uint16)
	}
	if len(cfg.Spec.Levels) > 0 {
		e.l1Latency = cfg.Spec.Levels[0].Latency
	}
	for c := 0; c < cfg.Cores; c++ {
		cc := &core{
			id:          c,
			socket:      cfg.Spec.SocketOf(c),
			quantumLeft: cfg.Quantum,
		}
		cc.stepFn = func() {
			cc.stepQueued = false
			e.step(cc)
		}
		e.cores = append(e.cores, cc)
	}
	e.localMCs = make([][]int, cfg.Spec.Sockets)
	for s := range e.localMCs {
		e.localMCs[s] = cfg.Spec.LocalMCs(s)
	}
	e.hopTable = make([][]int, cfg.Spec.Sockets)
	for s := range e.hopTable {
		e.hopTable[s] = make([]int, len(m.MCs))
		for mc := range e.hopTable[s] {
			e.hopTable[s][mc] = e.hopsFrom(s, mc)
		}
	}
	// Active controllers: those local to sockets with at least one active
	// core, in controller order (the paper's activation order).
	seen := map[int]bool{}
	for c := 0; c < cfg.Cores; c++ {
		for _, mc := range e.localMCs[cfg.Spec.SocketOf(c)] {
			if !seen[mc] {
				seen[mc] = true
				e.activeMCs = append(e.activeMCs, mc)
			}
		}
	}
	return e
}

// addThread registers thread i with stream s, pinning it to core i % Cores.
func (e *engine) addThread(i int, s trace.Stream) {
	th := &thread{id: i, stream: s}
	th.arriveFn = func() { e.arriveBarrier(th.core, th) }
	e.threads = append(e.threads, th)
	c := e.cores[i%len(e.cores)]
	th.core = c
	c.threads = append(c.threads, th)
}

// start schedules the first step of every core.
func (e *engine) start() {
	for _, c := range e.cores {
		e.scheduleStep(c, 0)
	}
}

// scheduleStep queues a step for core c after delay cycles, unless one is
// already queued.
//
//simcheck:hotpath
func (e *engine) scheduleStep(c *core, delay uint64) {
	if c.stepQueued {
		return
	}
	c.stepQueued = true
	e.q.After(delay, c.stepFn)
}

// currentThread returns the thread the core should attend to, rotating
// past finished and barrier-blocked threads (a barrier yields the core; a
// memory stall does not — the OS would never switch on a cache miss). It
// returns nil when every pinned thread is finished or waiting at a
// barrier, and may return a memory-blocked thread, in which case the core
// idles until the completion callback resumes it.
func (c *core) currentThread() *thread {
	n := len(c.threads)
	for i := 0; i < n; i++ {
		th := c.threads[c.cur]
		if th.finished || (th.blocked && th.atBarrier) {
			c.cur = (c.cur + 1) % n
			continue
		}
		return th
	}
	return nil
}

// rotate advances the round-robin pointer and resets the quantum.
func (c *core) rotate(quantum uint64) {
	if len(c.threads) > 1 {
		c.cur = (c.cur + 1) % len(c.threads)
	}
	c.quantumLeft = quantum
}

// step runs one batch of the core's current thread: work cycles and cache
// hits are executed inline until an off-chip miss, the batch limit, or the
// end of the stream.
//
//simcheck:hotpath
func (e *engine) step(c *core) {
	th := c.currentThread()
	if th == nil || th.blocked {
		return
	}
	var advance uint64
	refs := 0
	for {
		if advance >= batchLimit || refs >= 8192 {
			break
		}
		if th.pos == len(th.run) {
			th.run, th.pos = th.stream.Next(), 0
		}
		if len(th.run) == 0 {
			th.finished = true
			th.st.Finish = e.q.Now() + advance
			e.finishedThreads++
			// A finished thread counts as arrived at every remaining
			// barrier; waiters may now be releasable.
			e.q.After(advance, e.recheckFn)
			c.rotate(e.cfg.Quantum)
			break
		}
		ref := th.run[th.pos]
		th.pos++
		refs++
		advance += uint64(ref.Work)
		th.st.Work += uint64(ref.Work)
		th.st.Instructions += 1 + uint64(ref.Work)

		if ref.Sync {
			// Barrier: arrive in a dedicated event at now+advance.
			e.q.After(advance, th.arriveFn)
			e.chargeQuantum(c, advance)
			return
		}

		res := e.m.Hierarchies[c.id].Access(ref.Addr)
		if e.directory != nil {
			e.coherence(c, ref)
		}
		if !res.Miss {
			// Hits beyond the first level stall the pipeline for the extra
			// latency; first-level hits are fully pipelined.
			extra := res.Latency - e.l1Latency
			if res.HitLevel == 0 {
				extra = 0
			}
			th.st.Stall += extra
			advance += extra
			continue
		}
		// Off-chip miss: the request is issued at now+advance in a
		// dedicated event. The cache-traversal latency rides on the
		// request's path to memory (it is pipelined, not serialized on the
		// core): a dependent load pays it inside its block time, while
		// independent misses overlap it with further execution.
		req := e.getReq()
		req.c, req.th = c, th
		req.addr, req.dep, req.traversal = ref.Addr, ref.Dep, res.Latency
		e.q.After(advance, req.issueFn)
		e.chargeQuantum(c, advance)
		return
	}
	e.chargeQuantum(c, advance)
	if th.finished {
		// Move on to the next runnable thread immediately.
		if c.currentThread() != nil {
			e.scheduleStep(c, advance)
		}
		return
	}
	e.scheduleStep(c, advance)
}

// chargeQuantum deducts the batch duration from the core's quantum,
// rotating the run queue on expiry.
//
//simcheck:hotpath
func (e *engine) chargeQuantum(c *core, advance uint64) {
	if advance >= c.quantumLeft {
		c.rotate(e.cfg.Quantum)
	} else {
		c.quantumLeft -= advance
	}
}

// coherence applies the invalidation protocol for one access: stores drop
// every other socket's copies of the line (and future accesses there miss
// again — coherence misses); loads and stores record this socket's copy.
func (e *engine) coherence(c *core, ref trace.Ref) {
	line := ref.Addr >> 6
	mask := e.directory[line]
	bit := uint16(1) << uint(c.socket)
	if ref.Kind == trace.Store && mask&^bit != 0 {
		for s := 0; s < e.cfg.Spec.Sockets; s++ {
			if s == c.socket || mask&(1<<uint(s)) == 0 {
				continue
			}
			// Drop the copy from every core hierarchy of socket s; shared
			// levels are invalidated through whichever hierarchy holds
			// them first.
			for coreID := s * e.cfg.Spec.CoresPerSocket; coreID < (s+1)*e.cfg.Spec.CoresPerSocket; coreID++ {
				if e.m.Hierarchies[coreID].Invalidate(ref.Addr) {
					e.invalidations++
				}
			}
		}
		mask = 0
	}
	e.directory[line] = mask | bit
}

// arriveBarrier handles a thread reaching barrier ordinal th.barrierSeq:
// the last arriver releases everyone, earlier arrivers block and yield the
// core to the next runnable thread.
func (e *engine) arriveBarrier(c *core, th *thread) {
	seq := th.barrierSeq
	th.barrierSeq++
	e.barrierArrivals[seq]++
	if e.barrierArrivals[seq]+e.finishedThreads >= e.cfg.Threads {
		e.releaseBarrier(seq)
		e.scheduleStep(c, 0)
		return
	}
	th.blocked = true
	th.atBarrier = true
	th.blockStart = e.q.Now()
	// Yield: another thread pinned to this core may run meanwhile.
	c.rotate(e.cfg.Quantum)
	e.scheduleStep(c, 0)
}

// releaseBarrier wakes every thread waiting at barrier ordinal seq.
func (e *engine) releaseBarrier(seq int) {
	delete(e.barrierArrivals, seq)
	for _, th := range e.threads {
		if th.blocked && th.atBarrier && th.barrierSeq == seq+1 {
			// Barrier waits are tracked separately and NOT added to Stall:
			// a blocking (futex-style) barrier deschedules the thread, so
			// its cycle counters do not advance while it waits — matching
			// the paper's per-thread PAPI measurements.
			th.st.SyncStall += e.q.Now() - th.blockStart
			th.blocked = false
			th.atBarrier = false
			e.scheduleStep(th.core, 0)
		}
	}
}

// recheckBarriers re-evaluates release conditions after a thread finished.
func (e *engine) recheckBarriers() {
	for seq, arrived := range e.barrierArrivals {
		if arrived+e.finishedThreads >= e.cfg.Threads {
			e.releaseBarrier(seq)
		}
	}
}

// Off-chip request pipeline stages, in traversal order. Stages whose
// hardware is absent (no UMA bus, local access, no link modeling) advance
// directly without scheduling an event, exactly like the closure chain
// they replaced.
const (
	stBus      = iota // occupy the socket's front-side bus (UMA)
	stLinkOut         // occupy the socket's interconnect link, outbound
	stHopOut          // pay the interconnect hop latency, outbound
	stMC              // queue at the home memory controller
	stLinkBack        // occupy the link for the returning data payload
	stHopBack         // pay the hop latency on the way back
	stDone            // request complete: release MSHR, unblock thread
)

// memReq is one pooled off-chip request. It carries the request through the
// memory pipeline as a staged state machine; its two callbacks are built
// once per object (not per request), which is what makes the dispatch loop
// allocation-free.
type memReq struct {
	e         *engine
	c         *core
	th        *thread
	addr      uint64
	traversal uint64 // on-chip cache traversal latency riding on the request
	hopLat    uint64
	hops      int
	home      int
	dep       bool
	stage     uint8
	issueFn   func() // scheduled at issue time; runs e.issueReq(r)
	advanceFn func() // scheduled for latency stages, submitted to queueing servers; runs r.advance()
}

// getReq returns a request object from the free list, building its
// callbacks on first allocation.
//
//simcheck:hotpath
func (e *engine) getReq() *memReq {
	if n := len(e.reqFree); n > 0 {
		r := e.reqFree[n-1]
		e.reqFree[n-1] = nil
		e.reqFree = e.reqFree[:n-1]
		return r
	}
	r := &memReq{e: e}
	//simcheck:allow(hotpath) once-per-object closure: built only on free-list miss (object construction), reused for the object's whole lifetime
	r.issueFn = func() { r.e.issueReq(r) }
	r.advanceFn = r.advance
	return r
}

// putReq returns a request object to the free list. The caller must not
// touch r afterwards.
//
//simcheck:hotpath
func (e *engine) putReq(r *memReq) {
	r.c, r.th = nil, nil
	//simcheck:allow(hotpath) free-list append: capacity high-waters at the in-flight request peak, after which push/pop reuse the same backing array
	e.reqFree = append(e.reqFree, r)
}

// issueReq attempts to launch an off-chip request, blocking the thread
// while its MSHRs are full.
//
//simcheck:hotpath
func (e *engine) issueReq(r *memReq) {
	c, th := r.c, r.th
	if th.outstanding >= e.cfg.Spec.MSHRs {
		th.blocked = true
		th.wantSlot = true
		th.blockStart = e.q.Now()
		th.pending = r
		return
	}
	dep := r.dep
	e.launch(r)
	if dep {
		th.blocked = true
		th.waitDep = true
		th.blockStart = e.q.Now()
		return
	}
	e.scheduleStep(c, 0)
}

// launch routes one off-chip request into the pipeline: on-chip cache
// traversal, then the staged path through bus, link, interconnect hops,
// memory-controller service, and the return trip (see the st* stages).
//
//simcheck:hotpath
func (e *engine) launch(r *memReq) {
	c, th := r.c, r.th
	th.outstanding++
	th.st.OffChip++
	if w := e.cfg.MissWindow; w > 0 {
		i := e.q.Now() / w
		if n := uint64(len(e.missWindows)); i >= n {
			//simcheck:allow(hotpath) MissWindow runs only: the series grows at most once per window of simulated time, amortized over that window's requests
			e.missWindows = append(e.missWindows, make([]uint64, i+1-n)...)
		}
		e.missWindows[i]++
	}

	r.home = e.homeMC(r.addr, c)
	r.hops = e.hopTable[c.socket][r.home]
	if r.hops > 0 {
		th.st.Remote++
	}
	r.hopLat = uint64(r.hops) * e.cfg.Spec.HopLatency
	r.stage = stBus
	if r.traversal > 0 {
		e.q.After(r.traversal, r.advanceFn)
		return
	}
	r.advance()
}

// advance moves the request to its next pipeline stage. Stages with no
// modeled hardware fall through immediately; the others hand the request to
// a queueing server (bus, link, controller) or schedule a fixed latency,
// and resume here from the prebuilt callback when it elapses.
//
//simcheck:hotpath
func (r *memReq) advance() {
	e := r.e
	for {
		switch r.stage {
		case stBus:
			r.stage = stLinkOut
			if len(e.m.Buses) > 0 {
				// UMA: the request occupies the socket's front-side bus on
				// its way to the shared controller.
				e.m.Buses[r.c.socket].Submit(r.addr, r.advanceFn)
				return
			}
		case stLinkOut:
			r.stage = stHopOut
			// The link occupies the source socket's interconnect (if modeled
			// and the access is remote); requests queue when the link's
			// bandwidth saturates — the QPI/HT effect that makes remote
			// accesses increasingly costly as more sockets exchange data.
			if r.hops > 0 && len(e.m.LinkServers) > 0 {
				e.m.LinkServers[r.c.socket].Submit(r.addr, r.advanceFn)
				return
			}
		case stHopOut:
			r.stage = stMC
			if r.hopLat > 0 {
				e.q.After(r.hopLat, r.advanceFn)
				return
			}
		case stMC:
			r.stage = stLinkBack
			e.m.MCs[r.home].Submit(r.addr, r.advanceFn)
			return
		case stLinkBack:
			r.stage = stHopBack
			// Return path: link occupancy (the data payload), then hops.
			if r.hops > 0 && len(e.m.LinkServers) > 0 {
				e.m.LinkServers[r.c.socket].Submit(r.addr, r.advanceFn)
				return
			}
		case stHopBack:
			r.stage = stDone
			if r.hopLat > 0 {
				e.q.After(r.hopLat, r.advanceFn)
				return
			}
		default: // stDone
			c, th, dep := r.c, r.th, r.dep
			e.putReq(r)
			e.complete(c, th, dep)
			return
		}
	}
}

// complete handles the return of one off-chip request.
//
//simcheck:hotpath
func (e *engine) complete(c *core, th *thread, wasDep bool) {
	th.outstanding--
	if !th.blocked {
		return
	}
	switch {
	case th.waitDep && wasDep:
		e.unblock(c, th)
		e.scheduleStep(c, 0)
	case th.wantSlot:
		pend := th.pending
		th.pending = nil
		e.unblock(c, th)
		e.issueReq(pend)
	}
}

// unblock charges the blocked interval as memory stall and clears flags.
//
//simcheck:hotpath
func (e *engine) unblock(c *core, th *thread) {
	wait := e.q.Now() - th.blockStart
	th.st.Stall += wait
	th.st.MemStall += wait
	th.blocked = false
	th.waitDep = false
	th.wantSlot = false
}

// homeMC returns the controller owning addr's page, assigning it per the
// placement policy on first touch. With a single controller every policy
// answers 0, so no page is recorded.
func (e *engine) homeMC(addr uint64, c *core) int {
	if len(e.m.MCs) == 1 {
		return 0
	}
	r, p := addr>>trace.RegionBits, addr&(1<<trace.RegionBits-1)>>pageShift
	if r < denseRegions && p < densePages {
		tab := e.pageHome[r]
		if p < uint64(len(tab)) && tab[p] != 0 {
			return int(tab[p]) - 1
		}
		home := e.placePage(c)
		if n := uint64(len(tab)); p >= n {
			tab = append(tab, make([]uint16, p+1-n)...)
			e.pageHome[r] = tab
		}
		tab[p] = uint16(home + 1) // machine.MaxMCs keeps home+1 in 16 bits
		return home
	}
	page := addr >> pageShift
	if home, ok := e.farHome[page]; ok {
		return home
	}
	home := e.placePage(c)
	e.farHome[page] = home
	return home
}

// placePage picks the home controller of a page core c touches first.
func (e *engine) placePage(c *core) int {
	var home int
	switch e.cfg.Placement {
	case Interleave:
		home = e.activeMCs[e.interleaveRR%len(e.activeMCs)]
		e.interleaveRR++
	default: // FirstTouch
		local := e.localMCs[c.socket]
		home = local[e.firstTouchRR[c.socket]%len(local)]
		e.firstTouchRR[c.socket]++
	}
	return home
}

// hopsFrom returns the interconnect distance from a socket to a controller:
// the minimum hops from any of the socket's local controllers.
func (e *engine) hopsFrom(socket, mc int) int {
	best := -1
	for _, lmc := range e.localMCs[socket] {
		h := e.m.Topo.Hops(lmc, mc)
		if best < 0 || h < best {
			best = h
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// missWindowsTo returns the per-window off-chip request counts padded
// with empty windows through the window holding cycle end-1, so quiet
// trailing phases count. It is nil when the window is off or empty.
func (e *engine) missWindowsTo(end uint64) []uint64 {
	w := e.cfg.MissWindow
	if w == 0 || end == 0 {
		return e.missWindows
	}
	if n := (end-1)/w + 1; uint64(len(e.missWindows)) < n {
		e.missWindows = append(e.missWindows, make([]uint64, n-uint64(len(e.missWindows)))...)
	}
	return e.missWindows
}

// result assembles the run counters.
func (e *engine) result() Result {
	r := Result{
		MachineName: e.cfg.Spec.Name,
		Threads:     e.cfg.Threads,
		Cores:       e.cfg.Cores,
		Makespan:    e.q.Now(),
		Events:      e.q.Dispatched(),
	}
	for _, th := range e.threads {
		if !th.finished {
			r.Aborted = true
			// Charge an unfinished blocked interval up to the abort time so
			// the partial counters stay meaningful. Barrier waits go to
			// SyncStall (blocking-barrier semantics); memory waits to Stall.
			if th.blocked {
				wait := e.q.Now() - th.blockStart
				if th.atBarrier {
					th.st.SyncStall += wait
				} else {
					th.st.Stall += wait
					th.st.MemStall += wait
				}
				th.blocked = false
			}
		}
		r.PerThread = append(r.PerThread, th.st)
		r.TotalCycles += th.st.Cycles()
		r.WorkCycles += th.st.Work
		r.StallCycles += th.st.Stall
		r.MemStallCycles += th.st.MemStall
		r.SyncStallCycles += th.st.SyncStall
		r.Instructions += th.st.Instructions
		r.OffChipRequests += th.st.OffChip
		r.RemoteRequests += th.st.Remote
	}
	r.LLCMisses = e.m.LLCMisses()
	r.Invalidations = e.invalidations
	for _, mc := range e.m.MCs {
		r.MCStats = append(r.MCStats, mc.Stats())
	}
	for _, b := range e.m.Buses {
		r.BusStats = append(r.BusStats, b.Stats())
	}
	return r
}
