package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eventq"
	"repro/internal/machine"
	"repro/internal/trace"
)

// mapHomes is the page-home table the dense one replaced: one map from
// page number to controller, with its own placement counters. It is the
// reference the engine's homeMC must agree with on every request.
type mapHomes struct {
	e            *engine
	pageHome     map[uint64]int
	firstTouchRR []int
	interleaveRR int
}

func newMapHomes(e *engine) *mapHomes {
	return &mapHomes{e: e, pageHome: map[uint64]int{}, firstTouchRR: make([]int, e.cfg.Spec.Sockets)}
}

func (m *mapHomes) homeMC(addr uint64, c *core) int {
	e := m.e
	if len(e.m.MCs) == 1 {
		return 0
	}
	page := addr / 4096
	if home, ok := m.pageHome[page]; ok {
		return home
	}
	var home int
	switch e.cfg.Placement {
	case Interleave:
		home = e.activeMCs[m.interleaveRR%len(e.activeMCs)]
		m.interleaveRR++
	default: // FirstTouch
		local := e.localMCs[c.socket]
		home = local[m.firstTouchRR[c.socket]%len(local)]
		m.firstTouchRR[c.socket]++
	}
	m.pageHome[page] = home
	return home
}

// homeTestEngine builds the engine Run would for cfg, without threads.
func homeTestEngine(t *testing.T, cfg Config) *engine {
	t.Helper()
	cfg.applyDefaults()
	if err := cfg.validate(-1); err != nil {
		t.Fatal(err)
	}
	q := new(eventq.Queue)
	m, err := machine.Build(cfg.Spec, q)
	if err != nil {
		t.Fatal(err)
	}
	return newEngine(cfg, m, q)
}

// pageHomeAddrs returns seeded addresses that reach every part of the page
// table: the dense regions at small, large and repeated page offsets,
// pages at and past the dense span, regions past the dense ones, and
// addresses near the top of the address space.
func pageHomeAddrs(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	const region = uint64(1) << trace.RegionBits
	var addrs []uint64
	for len(addrs) < n {
		r := uint64(rng.Intn(denseRegions + 8))
		var addr uint64
		switch rng.Intn(6) {
		case 0: // the start of a region, where every workload array begins
			addr = r*region + uint64(rng.Intn(64<<12))
		case 1: // anywhere in the dense span of a few regions (a full
			// table is 2 MiB)
			addr = r%4*region + uint64(rng.Int63n(densePages<<pageShift))
		case 2: // just around the end of the dense span
			addr = r%4*region + densePages<<pageShift + uint64(rng.Intn(8<<12)) - 4<<12
		case 3: // past the dense span, up to the end of the region
			addr = r*region + densePages<<pageShift + uint64(rng.Int63n(int64(region-densePages<<pageShift)))
		case 4: // far above the dense regions
			addr = rng.Uint64()
		default: // a page already touched
			if len(addrs) > 0 {
				addr = addrs[rng.Intn(len(addrs))] ^ uint64(rng.Intn(1<<pageShift))
			}
		}
		addrs = append(addrs, addr)
	}
	return addrs
}

// TestPageHomeMatchesMap replays the same addresses through the dense
// page-home table and the map-based reference, from cores on every active
// socket, and requires the same home for every request under both
// placement policies. It also checks the dense tables never grow past
// their highest touched page.
func TestPageHomeMatchesMap(t *testing.T) {
	for _, placement := range []Placement{FirstTouch, Interleave} {
		for _, cores := range []int{1, 13, 48} {
			t.Run(fmt.Sprintf("%s/cores=%d", placement, cores), func(t *testing.T) {
				e := homeTestEngine(t, Config{Spec: machine.AMDNUMA48(), Cores: cores, Placement: placement})
				ref := newMapHomes(e)
				rng := rand.New(rand.NewSource(int64(cores)))
				var highest [denseRegions]uint64
				for i, addr := range pageHomeAddrs(int64(cores)+int64(placement)<<8, 20000) {
					c := e.cores[rng.Intn(len(e.cores))]
					want := ref.homeMC(addr, c)
					if got := e.homeMC(addr, c); got != want {
						t.Fatalf("request %d, addr %#x from core %d: home %d, map reference says %d", i, addr, c.id, got, want)
					}
					r, p := addr>>trace.RegionBits, addr&(1<<trace.RegionBits-1)>>pageShift
					if r < denseRegions && p < densePages {
						highest[r] = max(highest[r], p+1)
					}
				}
				for r, tab := range e.pageHome {
					if uint64(len(tab)) != highest[r] {
						t.Errorf("region %d: dense table holds %d pages, highest touched page is %d", r, len(tab), highest[r])
					}
				}
				if len(e.farHome) == 0 {
					t.Error("no address reached the fallback map")
				}
			})
		}
	}
}

// TestPageHomeUMA checks a one-controller machine homes every page on
// controller 0 without recording it.
func TestPageHomeUMA(t *testing.T) {
	e := homeTestEngine(t, Config{Spec: umaSpec()})
	for _, addr := range pageHomeAddrs(3, 1000) {
		if got := e.homeMC(addr, e.cores[len(e.cores)-1]); got != 0 {
			t.Fatalf("addr %#x: home %d on a one-controller machine", addr, got)
		}
	}
	for r, tab := range e.pageHome {
		if len(tab) != 0 {
			t.Errorf("region %d: %d pages recorded", r, len(tab))
		}
	}
	if len(e.farHome) != 0 {
		t.Errorf("%d far pages recorded", len(e.farHome))
	}
}
