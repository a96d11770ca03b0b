// Package machine describes and instantiates the multicore systems of the
// paper's testbed (section III-A): an 8-core Intel UMA machine (dual Xeon
// E5320), a 24-core Intel NUMA machine (dual Xeon X5650, hyper-threads
// counted as independent cores per the paper) and a 48-core AMD NUMA
// machine (quad Opteron 6172 with eight memory controllers).
//
// A Spec is a declarative description — sockets, cores, cache levels with
// per-core or per-socket scope, memory controllers, UMA front-side buses
// and the NUMA interconnect — and Build instantiates the simulation
// hardware (cache hierarchies, controllers, topology) against a
// discrete-event clock.
//
// Cache and DRAM sizes in the presets are uniformly scaled down from the
// physical parts (documented per preset) so that whole-program simulations
// complete quickly; the workload generator applies the same scale to its
// problem classes, preserving the footprint:cache ratios that determine the
// paper's contention regimes.
package machine

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/eventq"
	"repro/internal/interconnect"
	"repro/internal/memctrl"
)

// Scope says whether a cache level is replicated per core or shared by all
// cores of a socket.
type Scope uint8

const (
	// PerCore replicates the level for every core.
	PerCore Scope = iota
	// PerSocket shares one instance among all cores of a socket.
	PerSocket
)

// String implements fmt.Stringer.
func (s Scope) String() string {
	switch s {
	case PerCore:
		return "per-core"
	case PerSocket:
		return "per-socket"
	default:
		return "unknown"
	}
}

// CacheLevel is one level of the hierarchy plus its sharing scope.
type CacheLevel struct {
	cache.Config
	Scope Scope
}

// BusConfig describes the per-socket front-side bus of a UMA system: a
// single-server queue each request occupies for Occupancy cycles on its way
// to the shared memory controller.
type BusConfig struct {
	// Occupancy is the bus service time per request in cycles.
	Occupancy uint64
}

// Spec declares a machine.
type Spec struct {
	// Name identifies the machine in reports.
	Name string
	// Sockets is the number of processor packages.
	Sockets int
	// CoresPerSocket counts logical cores (hardware threads) per socket,
	// since each hardware thread issues memory requests independently.
	CoresPerSocket int
	// ClockGHz converts cycles to wall time (sizes the 5 µs miss windows).
	ClockGHz float64
	// Levels lists cache levels fastest-first.
	Levels []CacheLevel
	// MCsPerSocket is the number of local memory controllers per socket in
	// a NUMA machine, or 0 for a UMA machine with one shared controller.
	MCsPerSocket int
	// MC is the template configuration for every memory controller.
	MC memctrl.Config
	// Bus, when non-nil, places a per-socket front-side bus between each
	// socket and the shared controller (UMA machines only).
	Bus *BusConfig
	// HopLatency is the per-hop latency of the NUMA interconnect in cycles.
	HopLatency uint64
	// LinkOccupancy is the time in cycles a remote transfer occupies its
	// socket's interconnect link in each direction (QPI/HyperTransport
	// bandwidth); 0 disables link-bandwidth modeling.
	LinkOccupancy uint64
	// Links is the NUMA interconnect over memory-controller nodes;
	// ignored for UMA.
	Links [][2]int
	// MSHRs is the number of outstanding off-chip misses a core sustains
	// before stalling (memory-level parallelism).
	MSHRs int
}

// MaxMCs is the most memory controllers a machine may have: the
// simulator records each page's home controller in 16 bits.
const MaxMCs = 1<<16 - 1

// Validate checks structural consistency.
func (s Spec) Validate() error {
	if s.Sockets < 1 || s.CoresPerSocket < 1 {
		return fmt.Errorf("machine %s: need at least one socket and core", s.Name)
	}
	if len(s.Levels) == 0 {
		return fmt.Errorf("machine %s: need at least one cache level", s.Name)
	}
	if s.MCsPerSocket < 0 {
		return fmt.Errorf("machine %s: negative MCsPerSocket", s.Name)
	}
	if s.MCsPerSocket > MaxMCs/s.Sockets {
		return fmt.Errorf("machine %s: %d sockets x %d controllers exceeds the %d-controller limit",
			s.Name, s.Sockets, s.MCsPerSocket, MaxMCs)
	}
	if s.MSHRs < 1 {
		return fmt.Errorf("machine %s: MSHRs must be >= 1", s.Name)
	}
	if err := s.MC.Validate(); err != nil {
		return err
	}
	return nil
}

// Equal reports whether s and o describe the same machine: every field
// equal, cache levels, bus and links compared by content. It matches
// reflect.DeepEqual at a tenth of the cost; the run cache checks specs
// against the presets with it for every key. experiments'
// TestRunKeyComplete fails if a field is missing here.
func (s Spec) Equal(o Spec) bool {
	return s.Name == o.Name && s.Sockets == o.Sockets && s.CoresPerSocket == o.CoresPerSocket &&
		s.ClockGHz == o.ClockGHz && slices.Equal(s.Levels, o.Levels) &&
		s.MCsPerSocket == o.MCsPerSocket && s.MC == o.MC &&
		(s.Bus == o.Bus || s.Bus != nil && o.Bus != nil && *s.Bus == *o.Bus) &&
		s.HopLatency == o.HopLatency && s.LinkOccupancy == o.LinkOccupancy &&
		slices.Equal(s.Links, o.Links) && s.MSHRs == o.MSHRs
}

// UMA reports whether the machine has a single shared memory controller.
func (s Spec) UMA() bool { return s.MCsPerSocket == 0 }

// TotalCores returns Sockets*CoresPerSocket.
func (s Spec) TotalCores() int { return s.Sockets * s.CoresPerSocket }

// NumMCs returns the number of memory controllers (1 for UMA).
func (s Spec) NumMCs() int {
	if s.UMA() {
		return 1
	}
	return s.Sockets * s.MCsPerSocket
}

// SocketOf returns the socket index of a core under the fill-processor-
// first numbering the paper uses (cores 0..CoresPerSocket-1 on socket 0,
// and so on).
func (s Spec) SocketOf(core int) int { return core / s.CoresPerSocket }

// LocalMCs returns the indices of the memory controllers local to socket.
// For UMA every socket shares controller 0.
func (s Spec) LocalMCs(socket int) []int {
	if s.UMA() {
		return []int{0}
	}
	mcs := make([]int, s.MCsPerSocket)
	for i := range mcs {
		mcs[i] = socket*s.MCsPerSocket + i
	}
	return mcs
}

// Machine is an instantiated system: per-core cache hierarchies wired to
// shared levels, memory controllers, optional UMA buses and the NUMA
// topology.
type Machine struct {
	Spec Spec
	// Hierarchies has one entry per core.
	Hierarchies []*cache.Hierarchy
	// MCs lists the memory controllers, indexed by MC/NUMA node id.
	MCs []*memctrl.Controller
	// Buses lists the per-socket UMA buses (nil entries for NUMA machines).
	Buses []*memctrl.Controller
	// LinkServers lists the per-socket interconnect link servers (empty
	// when LinkOccupancy is 0 or the machine is UMA). Each is a two-lane
	// queue whose lane Submit picks by line address, so a remote request
	// occupies one lane on the way out and the same lane on the way back.
	LinkServers []*memctrl.Controller
	// Topo is the interconnect over MC nodes (single node for UMA).
	Topo *interconnect.Topology
}

// Build instantiates the spec against the simulator's event queue q.
func Build(spec Spec, q *eventq.Queue) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Spec: spec}

	// Shared levels: one instance per socket per shared level index.
	sharedBySocket := make([]map[int]*cache.Cache, spec.Sockets)
	for sock := range sharedBySocket {
		sharedBySocket[sock] = make(map[int]*cache.Cache)
	}
	for core := 0; core < spec.TotalCores(); core++ {
		sock := spec.SocketOf(core)
		var levels []*cache.Cache
		for li, lvl := range spec.Levels {
			switch lvl.Scope {
			case PerCore:
				cfg := lvl.Config
				cfg.Name = fmt.Sprintf("%s.core%d", lvl.Name, core)
				c, err := cache.New(cfg)
				if err != nil {
					return nil, err
				}
				levels = append(levels, c)
			case PerSocket:
				c, ok := sharedBySocket[sock][li]
				if !ok {
					cfg := lvl.Config
					cfg.Name = fmt.Sprintf("%s.socket%d", lvl.Name, sock)
					var err error
					c, err = cache.New(cfg)
					if err != nil {
						return nil, err
					}
					sharedBySocket[sock][li] = c
				}
				levels = append(levels, c)
			default:
				return nil, fmt.Errorf("machine %s: bad scope %d", spec.Name, lvl.Scope)
			}
		}
		m.Hierarchies = append(m.Hierarchies, cache.NewHierarchy(levels...))
	}

	// Memory controllers.
	for i := 0; i < spec.NumMCs(); i++ {
		cfg := spec.MC
		cfg.Name = fmt.Sprintf("MC%d", i)
		mc, err := memctrl.New(cfg, q)
		if err != nil {
			return nil, err
		}
		m.MCs = append(m.MCs, mc)
	}

	// UMA per-socket buses, modeled as single-channel FCFS servers.
	if spec.Bus != nil {
		for sock := 0; sock < spec.Sockets; sock++ {
			cfg := memctrl.Config{
				Name:        fmt.Sprintf("bus%d", sock),
				Channels:    1,
				Banks:       1,
				RowBytes:    1 << 30, // every request "hits": constant occupancy
				LineBytes:   spec.MC.LineBytes,
				HitLatency:  spec.Bus.Occupancy,
				MissLatency: spec.Bus.Occupancy,
				Discipline:  memctrl.FCFS,
			}
			bus, err := memctrl.New(cfg, q)
			if err != nil {
				return nil, err
			}
			m.Buses = append(m.Buses, bus)
		}
	}

	// NUMA link-bandwidth servers, one per socket.
	if !spec.UMA() && spec.LinkOccupancy > 0 {
		for sock := 0; sock < spec.Sockets; sock++ {
			cfg := memctrl.Config{
				Name:        fmt.Sprintf("link%d", sock),
				Channels:    2, // two lanes, picked by line address
				Banks:       1,
				RowBytes:    1 << 30, // constant occupancy
				LineBytes:   spec.MC.LineBytes,
				HitLatency:  spec.LinkOccupancy,
				MissLatency: spec.LinkOccupancy,
				Discipline:  memctrl.FCFS,
			}
			link, err := memctrl.New(cfg, q)
			if err != nil {
				return nil, err
			}
			m.LinkServers = append(m.LinkServers, link)
		}
	}

	// Interconnect.
	var err error
	if spec.UMA() {
		m.Topo = interconnect.SingleNode()
	} else {
		m.Topo, err = interconnect.New(spec.Name, spec.NumMCs(), spec.Links)
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// LLCOf returns the last-level cache serving the core.
func (m *Machine) LLCOf(core int) *cache.Cache {
	return m.Hierarchies[core].LLC()
}

// LLCMisses sums demand misses over the distinct last-level caches.
func (m *Machine) LLCMisses() uint64 {
	seen := map[*cache.Cache]bool{}
	var total uint64
	for core := range m.Hierarchies {
		llc := m.LLCOf(core)
		if llc != nil && !seen[llc] {
			seen[llc] = true
			total += llc.Stats().Misses
		}
	}
	return total
}
