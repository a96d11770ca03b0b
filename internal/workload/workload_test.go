package workload

import (
	"testing"

	"repro/internal/trace"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"CG", "EP", "FT", "IS", "MG", "SP", "canneal", "fluidanimate", "streamcluster", "x264"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("names[%d] = %q, want %q", i, names[i], w)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("nope", C); err == nil {
		t.Error("unknown program accepted")
	}
	if _, err := New("CG", "XXL"); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := New("x264", C); err == nil {
		t.Error("NPB class accepted for x264")
	}
	if _, err := New("CG", Native); err == nil {
		t.Error("PARSEC class accepted for CG")
	}
}

func TestClassesFor(t *testing.T) {
	if got := ClassesFor("CG"); len(got) != 5 {
		t.Errorf("CG classes = %v", got)
	}
	if got := ClassesFor("x264"); len(got) != 4 {
		t.Errorf("x264 classes = %v", got)
	}
	if got := ClassesFor("nope"); got != nil {
		t.Errorf("unknown program classes = %v", got)
	}
	// simserved tells an unknown program by its empty class list.
	for _, name := range Names() {
		if len(ClassesFor(name)) == 0 {
			t.Errorf("%s has no classes", name)
		}
	}
}

func TestDescribe(t *testing.T) {
	for _, name := range Names() {
		if Describe(name) == "" {
			t.Errorf("%s has no description", name)
		}
	}
}

func TestPartition(t *testing.T) {
	// Coverage and disjointness for several shapes.
	for _, tc := range []struct{ n, threads int }{
		{10, 3}, {7, 7}, {5, 8}, {100, 1}, {0, 4},
	} {
		covered := 0
		prevHi := 0
		for th := 0; th < tc.threads; th++ {
			lo, hi := partition(tc.n, tc.threads, th)
			if lo != prevHi {
				t.Errorf("n=%d t=%d: thread %d starts at %d, want %d", tc.n, tc.threads, th, lo, prevHi)
			}
			if hi < lo {
				t.Errorf("negative range: [%d,%d)", lo, hi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.n {
			t.Errorf("n=%d threads=%d: covered %d", tc.n, tc.threads, covered)
		}
	}
	// Balance: ranges differ by at most one.
	minSz, maxSz := 1<<30, 0
	for th := 0; th < 7; th++ {
		lo, hi := partition(100, 7, th)
		if hi-lo < minSz {
			minSz = hi - lo
		}
		if hi-lo > maxSz {
			maxSz = hi - lo
		}
	}
	if maxSz-minSz > 1 {
		t.Errorf("imbalance: %d..%d", minSz, maxSz)
	}
}

func TestSeedForDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for _, name := range []string{"CG", "EP"} {
		for _, class := range []Class{S, C} {
			for th := 0; th < 4; th++ {
				s := seedFor(name, Class(class), th)
				if seen[s] {
					t.Errorf("duplicate seed for %s.%s thread %d", name, class, th)
				}
				seen[s] = true
			}
		}
	}
}

// drain counts refs and validates basic stream invariants.
func drain(t *testing.T, s trace.Stream) (n int, deps int, stores int) {
	t.Helper()
	for run := s.Next(); len(run) > 0; run = s.Next() {
		for _, r := range run {
			n++
			if r.Dep {
				deps++
			}
			if r.Kind == trace.Store {
				stores++
			}
		}
	}
	return
}

func TestEveryWorkloadProducesStreams(t *testing.T) {
	tune := Tuning{RefScale: 0.05}
	for _, name := range Names() {
		for _, class := range ClassesFor(name) {
			w, err := NewTuned(name, class, tune)
			if err != nil {
				t.Fatalf("%s.%s: %v", name, class, err)
			}
			if w.Name() != name || w.Class() != class {
				t.Errorf("%s.%s: identity mismatch", name, class)
			}
			if w.FootprintBytes() == 0 {
				t.Errorf("%s.%s: zero footprint", name, class)
			}
			streams := w.Streams(3)
			if len(streams) != 3 {
				t.Fatalf("%s.%s: %d streams", name, class, len(streams))
			}
			total := 0
			for i, s := range streams {
				n, _, _ := drain(t, s)
				if n == 0 {
					t.Errorf("%s.%s: thread %d empty", name, class, i)
				}
				total += n
			}
			if total < 100 {
				t.Errorf("%s.%s: only %d refs total", name, class, total)
			}
		}
	}
}

func TestStreamsDeterministic(t *testing.T) {
	tune := Tuning{RefScale: 0.05}
	for _, name := range []string{"CG", "IS", "x264"} {
		classes := ClassesFor(name)
		w1, _ := NewTuned(name, classes[0], tune)
		w2, _ := NewTuned(name, classes[0], tune)
		s1 := w1.Streams(2)
		s2 := w2.Streams(2)
		for th := 0; th < 2; th++ {
			r1 := trace.Collect(s1[th], 5000)
			r2 := trace.Collect(s2[th], 5000)
			if len(r1) != len(r2) {
				t.Fatalf("%s: lengths differ", name)
			}
			for i := range r1 {
				if r1[i] != r2[i] {
					t.Fatalf("%s thread %d ref %d: %+v vs %+v", name, th, i, r1[i], r2[i])
				}
			}
			trace.StopAll(s1[th], s2[th])
		}
	}
}

func TestFootprintOrdering(t *testing.T) {
	// Footprints must grow monotonically with class for the NPB dwarfs.
	for _, name := range []string{"CG", "IS", "FT", "SP", "MG"} {
		var prev uint64
		for _, class := range []Class{S, W, A, B, C} {
			w, err := New(name, class)
			if err != nil {
				t.Fatal(err)
			}
			fp := w.FootprintBytes()
			if fp <= prev {
				t.Errorf("%s.%s footprint %d not > previous %d", name, class, fp, prev)
			}
			prev = fp
		}
	}
	// x264 native must dwarf the sim inputs.
	small, _ := New("x264", SimSmall)
	native, _ := New("x264", Native)
	if native.FootprintBytes() < 10*small.FootprintBytes() {
		t.Error("x264 native footprint should be much larger than simsmall")
	}
}

func TestClassRegimesVsLLC(t *testing.T) {
	// The scaled class design: W fits in a 768 KB socket LLC for the
	// low-contention programs, while C exceeds it severalfold for the
	// high-contention ones.
	const llc = 768 << 10
	for _, name := range []string{"CG", "FT", "SP"} {
		w, _ := New(name, W)
		if w.FootprintBytes() > llc {
			t.Errorf("%s.W footprint %d exceeds LLC", name, w.FootprintBytes())
		}
		c, _ := New(name, C)
		if c.FootprintBytes() < 4*llc {
			t.Errorf("%s.C footprint %d not >> LLC", name, c.FootprintBytes())
		}
	}
}

func TestCGGatherIsDependent(t *testing.T) {
	w, _ := NewTuned("CG", S, Tuning{RefScale: 0.2})
	s := w.Streams(1)[0]
	_, deps, stores := drain(t, s)
	if deps == 0 {
		t.Error("CG should contain dependent gathers")
	}
	if stores == 0 {
		t.Error("CG should contain stores")
	}
}

func TestDependentFractionOrdering(t *testing.T) {
	// CG's gathers are address-dependent (pointer-indirect), while SP's
	// affine sweeps are fully independent: CG must have a higher dependent
	// fraction than SP, which is what puts CG below SP in contention.
	frac := func(name string) float64 {
		w, err := NewTuned(name, W, Tuning{RefScale: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		n, deps, _ := drain(t, w.Streams(1)[0])
		return float64(deps) / float64(n)
	}
	spFrac := frac("SP")
	cgFrac := frac("CG")
	// SP's only dependent refs are the per-iteration barrier reductions.
	if spFrac > 0.02 {
		t.Errorf("SP dep fraction = %.3f, want ~0 (affine addresses)", spFrac)
	}
	if cgFrac <= 0.1 {
		t.Errorf("CG dep fraction = %.2f, want substantial", cgFrac)
	}
	if cgFrac <= 5*spFrac {
		t.Errorf("CG dep fraction %.3f should dwarf SP's %.3f", cgFrac, spFrac)
	}
}

func TestEPMostlyWork(t *testing.T) {
	w, _ := NewTuned("EP", C, Tuning{RefScale: 0.05})
	s := w.Streams(1)[0]
	var refs, work uint64
	for run := s.Next(); len(run) > 0; run = s.Next() {
		for _, r := range run {
			refs++
			work += uint64(r.Work)
		}
	}
	if work < refs*50 {
		t.Errorf("EP work/ref = %d, want compute-dominated (>50)", work/refs)
	}
}

func TestX264AddressesInBounds(t *testing.T) {
	w, _ := NewTuned("x264", SimSmall, Tuning{RefScale: 1})
	p := x264Classes[SimSmall]
	planeSize := uint64(p.width * p.height)
	for _, s := range w.Streams(2) {
		for run := s.Next(); len(run) > 0; run = s.Next() {
			for _, r := range run {
				if r.Sync {
					continue
				}
				region := int(r.Addr>>regionBits) - 1
				off := r.Addr & ((1 << regionBits) - 1)
				switch region {
				case x264Ref, x264Cur, x264Out:
					if off >= planeSize {
						t.Fatalf("plane %d offset %d beyond plane size %d", region, off, planeSize)
					}
				case x264Input:
					// The input is a ring of per-frame buffers.
					if off >= planeSize*uint64(p.frames) {
						t.Fatalf("input offset %d beyond %d frames", off, p.frames)
					}
				default:
					t.Fatalf("unexpected region %d", region)
				}
			}
		}
	}
}

func TestTuningScale(t *testing.T) {
	if (Tuning{}).scale(100) != 100 {
		t.Error("zero RefScale should mean 1.0")
	}
	if (Tuning{RefScale: 0.5}).scale(100) != 50 {
		t.Error("scale wrong")
	}
	if (Tuning{RefScale: 0.001}).scale(100) != 1 {
		t.Error("scale should clamp to 1")
	}
}

func TestCGRowLenRange(t *testing.T) {
	avg := 10
	for row := 0; row < 10000; row++ {
		rl := cgRowLen(row, avg)
		if rl < avg/2 || rl > 3*avg/2 {
			t.Fatalf("row %d len %d outside [%d,%d]", row, rl, avg/2, 3*avg/2)
		}
	}
}

func TestBaseRegionsDisjoint(t *testing.T) {
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if base(i)>>regionBits == base(j)>>regionBits {
				t.Fatalf("regions %d and %d collide", i, j)
			}
		}
	}
}

// regionOf extracts the array id of an address.
func regionOf(addr uint64) int { return int(addr>>regionBits) - 1 }

func TestFTAddressesInBounds(t *testing.T) {
	w, _ := NewTuned("FT", S, Tuning{RefScale: 0.2})
	p := ftClasses[S]
	cells := uint64(p.nx) * uint64(p.ny) * uint64(p.nz)
	for _, s := range w.Streams(2) {
		for run := s.Next(); len(run) > 0; run = s.Next() {
			for _, r := range run {
				if r.Sync {
					continue
				}
				region := regionOf(r.Addr)
				off := r.Addr & ((1 << regionBits) - 1)
				switch region {
				case ftU0, ftU1:
					if off >= cells*16 {
						t.Fatalf("FT offset %d beyond grid (%d cells)", off, cells)
					}
				case barrierRegion:
					// coherence lines
				default:
					t.Fatalf("unexpected FT region %d", region)
				}
			}
		}
	}
}

func TestSPAddressesInBounds(t *testing.T) {
	w, _ := NewTuned("SP", S, Tuning{RefScale: 0.2})
	p := spClasses[S]
	cells := uint64(p.n) * uint64(p.n) * uint64(p.n)
	for _, s := range w.Streams(3) {
		for run := s.Next(); len(run) > 0; run = s.Next() {
			for _, r := range run {
				if r.Sync {
					continue
				}
				region := regionOf(r.Addr)
				off := r.Addr & ((1 << regionBits) - 1)
				switch region {
				case spU, spRHS, spLHS:
					if off >= cells*spCellBytes {
						t.Fatalf("SP offset %d beyond grid", off)
					}
				case barrierRegion:
				default:
					t.Fatalf("unexpected SP region %d", region)
				}
			}
		}
	}
}

func TestMGAddressesWithinLevels(t *testing.T) {
	w, _ := NewTuned("MG", S, Tuning{RefScale: 0.2})
	p := mgClasses[S]
	for _, s := range w.Streams(2) {
		for run := s.Next(); len(run) > 0; run = s.Next() {
			for _, r := range run {
				if r.Sync {
					continue
				}
				region := regionOf(r.Addr)
				if region == barrierRegion {
					continue
				}
				if region != mgU && region != mgR {
					t.Fatalf("unexpected MG region %d", region)
				}
				// Level index packs into bits 32+; the finest level's grid plus
				// one plane of stencil slack bounds each level's extent.
				level := int((r.Addr >> 32) & 0xf)
				if level >= p.levels {
					t.Fatalf("MG level %d beyond %d", level, p.levels)
				}
				n := uint64(p.n >> level)
				off := r.Addr & ((1 << 32) - 1)
				limit := (n*n*n + n*n) * 8 // grid + one plane of stencil overrun
				if off >= limit {
					t.Fatalf("MG level %d offset %d beyond %d", level, off, limit)
				}
			}
		}
	}
}

func TestStreamclusterAddressesInBounds(t *testing.T) {
	w, _ := NewTuned("streamcluster", SimSmall, Tuning{RefScale: 0.5})
	p := scClasses[SimSmall]
	pointBytes := uint64(p.dim) * 4
	for _, s := range w.Streams(2) {
		for run := s.Next(); len(run) > 0; run = s.Next() {
			for _, r := range run {
				if r.Sync {
					continue
				}
				region := regionOf(r.Addr)
				off := r.Addr & ((1 << regionBits) - 1)
				switch region {
				case scPoints:
					if off >= uint64(p.points)*pointBytes {
						t.Fatalf("points offset %d out of range", off)
					}
				case scCosts:
					if off >= uint64(p.points)*8 {
						t.Fatalf("costs offset %d out of range", off)
					}
				case scCenters:
					if off >= uint64(p.centers)*pointBytes {
						t.Fatalf("centers offset %d out of range", off)
					}
				case barrierRegion:
				default:
					t.Fatalf("unexpected streamcluster region %d", region)
				}
			}
		}
	}
}

func TestCGAddressesInBounds(t *testing.T) {
	w, _ := NewTuned("CG", S, Tuning{RefScale: 0.1})
	p := cgClasses[S]
	// Upper bound on nnz: 3*avg/2 per row.
	maxNNZ := uint64(p.rows) * uint64(3*p.nnzPerRow/2+1)
	for _, s := range w.Streams(2) {
		for run := s.Next(); len(run) > 0; run = s.Next() {
			for _, r := range run {
				if r.Sync {
					continue
				}
				region := regionOf(r.Addr)
				off := r.Addr & ((1 << regionBits) - 1)
				switch region {
				case cgAVal:
					if off >= maxNNZ*8 {
						t.Fatalf("aVal offset %d out of range", off)
					}
				case cgACol:
					if off >= maxNNZ*4 {
						t.Fatalf("aCol offset %d out of range", off)
					}
				case cgVecX, cgVecP, cgVecQ, cgVecR, cgVecZ:
					if off >= uint64(p.rows)*8 {
						t.Fatalf("vector region %d offset %d out of range", region, off)
					}
				case barrierRegion:
				default:
					t.Fatalf("unexpected CG region %d", region)
				}
			}
		}
	}
}

func TestCannealIsDependencyDominated(t *testing.T) {
	w, _ := NewTuned("canneal", SimSmall, Tuning{RefScale: 0.25})
	n, deps, stores := drain(t, w.Streams(2)[0])
	if n == 0 || stores == 0 {
		t.Fatalf("refs=%d stores=%d", n, stores)
	}
	if frac := float64(deps) / float64(n); frac < 0.6 {
		t.Errorf("canneal dep fraction = %.2f, want pointer-chase dominated (>0.6)", frac)
	}
}

func TestCannealAddressesInBounds(t *testing.T) {
	w, _ := NewTuned("canneal", SimSmall, Tuning{RefScale: 0.25})
	p := cannealClasses[SimSmall]
	for _, s := range w.Streams(2) {
		for run := s.Next(); len(run) > 0; run = s.Next() {
			for _, r := range run {
				if r.Sync {
					continue
				}
				region := regionOf(r.Addr)
				off := r.Addr & ((1 << regionBits) - 1)
				switch region {
				case cannealNetlist:
					if off >= uint64(p.elements)*64 {
						t.Fatalf("netlist offset %d out of range", off)
					}
				case barrierRegion:
				default:
					t.Fatalf("unexpected canneal region %d", region)
				}
			}
		}
	}
}

func TestFluidanimateAddressesInBounds(t *testing.T) {
	w, _ := NewTuned("fluidanimate", SimSmall, Tuning{RefScale: 0.25})
	p := fluidClasses[SimSmall]
	cells := uint64(p.nx) * uint64(p.ny) * uint64(p.nz)
	var deps int
	for _, s := range w.Streams(3) {
		for run := s.Next(); len(run) > 0; run = s.Next() {
			for _, r := range run {
				if r.Sync {
					continue
				}
				if r.Dep {
					deps++
				}
				region := regionOf(r.Addr)
				off := r.Addr & ((1 << regionBits) - 1)
				switch region {
				case fluidCells:
					if off >= cells*fluidCellBytes {
						t.Fatalf("cell offset %d beyond grid", off)
					}
				case barrierRegion:
				default:
					t.Fatalf("unexpected fluidanimate region %d", region)
				}
			}
		}
	}
}

func TestPARSECFootprintsGrowWithInput(t *testing.T) {
	for _, name := range []string{"canneal", "fluidanimate", "streamcluster", "x264"} {
		var prev uint64
		for _, class := range []Class{SimSmall, SimMedium, SimLarge, Native} {
			w, err := New(name, class)
			if err != nil {
				t.Fatal(err)
			}
			fp := w.FootprintBytes()
			if fp < prev {
				t.Errorf("%s.%s footprint %d shrank from %d", name, class, fp, prev)
			}
			prev = fp
		}
	}
}
