package workload

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// threadDigest is one thread's stream in brief: its length and a hash of
// every field of every ref in order.
type threadDigest struct {
	refs uint64
	hash uint64
}

// streamDigest pins one program+class at digestScale and digestThreads.
type streamDigest struct {
	footprint   uint64
	description string
	threads     [digestThreads]threadDigest
}

const (
	digestScale   = 0.01
	digestThreads = 3
)

// digest drains s, folding each ref's fields into an FNV-1a style hash
// over 64-bit words.
func digest(s trace.Stream) threadDigest {
	const prime = 1099511628211
	d := threadDigest{hash: 14695981039346656037}
	for run := s.Next(); len(run) > 0; run = s.Next() {
		for _, r := range run {
			flags := uint64(r.Work) | uint64(r.Kind)<<32
			if r.Dep {
				flags |= 1 << 40
			}
			if r.Sync {
				flags |= 1 << 41
			}
			d.hash = (d.hash ^ r.Addr) * prime
			d.hash = (d.hash ^ flags) * prime
			d.refs++
		}
	}
	return d
}

// TestStreamDigests pins the exact reference stream of every registered
// program and class, thread by thread, with its footprint and description.
// TestStreamsDeterministic only compares a stream with itself; this test
// catches any change to what a kernel emits.
func TestStreamDigests(t *testing.T) {
	seen := 0
	for _, name := range Names() {
		for _, class := range ClassesFor(name) {
			key := fmt.Sprintf("%s.%s", name, class)
			want, ok := streamDigests[key]
			if !ok {
				t.Errorf("%s: no pinned digest", key)
				continue
			}
			seen++
			w, err := NewTuned(name, class, Tuning{RefScale: digestScale})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := streamDigest{footprint: w.FootprintBytes(), description: w.Description()}
			for i, s := range w.Streams(digestThreads) {
				got.threads[i] = digest(s)
			}
			if got != want {
				t.Errorf("%s: got %#v, want %#v", key, got, want)
			}
		}
	}
	if seen != len(streamDigests) {
		t.Errorf("%d pinned digests, %d registered program classes", len(streamDigests), seen)
	}
}

var streamDigests = map[string]streamDigest{
	"CG.S":                    {139264, "Sparse linear algebra: data with many 0 values", [digestThreads]threadDigest{{11234, 0xfa3c3bd8b2516bbf}, {11537, 0x5a755fe564b60f2d}, {11285, 0x64d4a9fab682a02d}}},
	"CG.W":                    {278528, "Sparse linear algebra: data with many 0 values", [digestThreads]threadDigest{{22769, 0xdf3ca53ad7accfb1}, {22427, 0xa191171615007675}, {22580, 0x982314f01dc84443}}},
	"CG.A":                    {1310720, "Sparse linear algebra: data with many 0 values", [digestThreads]threadDigest{{106727, 0xb1cb6076ccd341e5}, {106004, 0x53f5422cdf664b73}, {106634, 0xc88e0e4a6bc0a1a7}}},
	"CG.B":                    {9043968, "Sparse linear algebra: data with many 0 values", [digestThreads]threadDigest{{737933, 0x89868cb9026da8e1}, {738863, 0xac2e1bcab1f2da71}, {738830, 0x58ee4a9803d51d33}}},
	"CG.C":                    {27262976, "Sparse linear algebra: data with many 0 values", [digestThreads]threadDigest{{2225609, 0xade2dc0fc2f863d1}, {2227997, 0x1aa846bbcd39cbc1}, {2232440, 0x657e6c848eb4afb3}}},
	"EP.S":                    {983040, "Embarrassingly parallel: low data dependency, low memory", [digestThreads]threadDigest{{40, 0x78d0a8638dadcf65}, {40, 0xb33616bbd893837d}, {40, 0x19110f98a522992d}}},
	"EP.W":                    {2506752, "Embarrassingly parallel: low data dependency, low memory", [digestThreads]threadDigest{{120, 0xed06f7f15a5871b5}, {120, 0x2bc88ff4bd41fb3d}, {120, 0x9568394d81d650fd}}},
	"EP.A":                    {5013504, "Embarrassingly parallel: low data dependency, low memory", [digestThreads]threadDigest{{240, 0x298d0b34211a9a25}, {240, 0x9ef7065f4d665305}, {240, 0x4404bc99c4584b05}}},
	"EP.B":                    {8110080, "Embarrassingly parallel: low data dependency, low memory", [digestThreads]threadDigest{{416, 0xc2d74bc67d5c48dd}, {416, 0xb93503664b851ad5}, {416, 0xfd3e0b8e7135034d}}},
	"EP.C":                    {12337152, "Embarrassingly parallel: low data dependency, low memory", [digestThreads]threadDigest{{632, 0x7b816f4644ad7f5}, {632, 0xa975886cb46e0d6d}, {632, 0x1a844cb08d6d80dd}}},
	"FT.S":                    {131072, "Spectral methods: fast Fourier transform", [digestThreads]threadDigest{{10990, 0xf36975a343c78203}, {10892, 0x1bdcc54712bd6909}, {10892, 0x83797edfe9910209}}},
	"FT.W":                    {262144, "Spectral methods: fast Fourier transform", [digestThreads]threadDigest{{21912, 0x1b0faceba6e094c9}, {21848, 0x88a51f80bbd42549}, {21782, 0x28debd1cf7721e03}}},
	"FT.A":                    {1048576, "Spectral methods: fast Fourier transform", [digestThreads]threadDigest{{87512, 0xf03dfb77cbaba49}, {87320, 0x1fd154e98313efc9}, {87318, 0x21fa9e571e1cba03}}},
	"FT.B":                    {2097152, "Spectral methods: fast Fourier transform", [digestThreads]threadDigest{{174894, 0xc7eb57034afd9a83}, {174764, 0x5461796d6f5bbcc9}, {174636, 0x9a02dc446b414fc9}}},
	"FT.C":                    {4194304, "Spectral methods: fast Fourier transform", [digestThreads]threadDigest{{349656, 0xb6175f55cbb89649}, {349592, 0xa352f1d74bfb30c9}, {349334, 0xd1e1a56a76536d03}}},
	"IS.S":                    {163840, "Parallel sorting: bucket sort on integers", [digestThreads]threadDigest{{35505, 0x282ee952607e6eec}, {35499, 0x400ce08a11ddcb90}, {35498, 0xf5cc991746859de7}}},
	"IS.W":                    {1572864, "Parallel sorting: bucket sort on integers", [digestThreads]threadDigest{{305839, 0x4a173cdc78d2caf4}, {305839, 0xd4fb32775e0593e0}, {305832, 0x72e5011ba6ea4567}}},
	"IS.A":                    {3145728, "Parallel sorting: bucket sort on integers", [digestThreads]threadDigest{{611676, 0x527a8fe400cea787}, {611669, 0x383df1c5c95ee538}, {611669, 0xbb9ae0c4e77011d4}}},
	"IS.B":                    {6291456, "Parallel sorting: bucket sort on integers", [digestThreads]threadDigest{{1223343, 0xc0b8f98269c50844}, {1223343, 0x3292370f21aa8240}, {1223336, 0xe6faa2c869704c17}}},
	"IS.C":                    {12582912, "Parallel sorting: bucket sort on integers", [digestThreads]threadDigest{{2446684, 0xc2c2dec00d9c0c67}, {2446677, 0x8c84262c2b16648}, {2446677, 0x35d94581a09aea84}}},
	"MG.S":                    {74752, "Structured grid: multigrid V-cycle on a 3D mesh", [digestThreads]threadDigest{{12574, 0xdeee4321cddaa383}, {13226, 0x881069acd06ef83}, {13214, 0xef9b0c397c915ab3}}},
	"MG.W":                    {599040, "Structured grid: multigrid V-cycle on a 3D mesh", [digestThreads]threadDigest{{103374, 0x6e9c6f4aa42fdda3}, {106070, 0xaf1ece04de0e49e3}, {106050, 0xe56ed1ebe67ad73}}},
	"MG.A":                    {2021760, "Structured grid: multigrid V-cycle on a 3D mesh", [digestThreads]threadDigest{{351866, 0x71219b0f8ae2b343}, {357986, 0xa6e2abf069d2b143}, {357986, 0x99beb5be8b35dec3}}},
	"MG.B":                    {4793344, "Structured grid: multigrid V-cycle on a 3D mesh", [digestThreads]threadDigest{{837930, 0x207a807deae4f023}, {848810, 0xc0240ad9c19f73e3}, {848786, 0xca1b08ecbfa0dc33}}},
	"MG.C":                    {16177536, "Structured grid: multigrid V-cycle on a 3D mesh", [digestThreads]threadDigest{{2840186, 0x1f9733bef2bb7343}, {2864738, 0x8a887356c433b143}, {2864738, 0x768426138ccddec3}}},
	"SP.S":                    {61440, "Structured grid: pentadiagonal solver", [digestThreads]threadDigest{{2456, 0x3ee68e0c451ad5a8}, {2360, 0x34101ff622404c18}, {2358, 0x28b3650aa655f843}}},
	"SP.W":                    {329280, "Structured grid: pentadiagonal solver", [digestThreads]threadDigest{{12920, 0x899be999ea778848}, {12752, 0x231b3e26596f2f38}, {12750, 0x9d45f99fb3a334b3}}},
	"SP.A":                    {960000, "Structured grid: pentadiagonal solver", [digestThreads]threadDigest{{37496, 0xbcb494e6f12804a8}, {37256, 0xfa9bca20510e7cb8}, {37254, 0x564f0f5948d28243}}},
	"SP.B":                    {3240000, "Structured grid: pentadiagonal solver", [digestThreads]threadDigest{{126002, 0xd44627e9925ed623}, {126002, 0x42e566a5b28f56a3}, {126002, 0xd70a1389d317a223}}},
	"SP.C":                    {7680000, "Structured grid: pentadiagonal solver", [digestThreads]threadDigest{{298990, 0x3129ea99b7b2143}, {298508, 0xdfab405e9f797e68}, {298508, 0x7ed39d91cfa30ca8}}},
	"canneal.simsmall":        {524288, "Simulated annealing: pointer-chasing netlist routing", [digestThreads]threadDigest{{16002, 0x384d79af3be39043}, {16002, 0xa97bf89e2b082dc3}, {16002, 0xd89a61b8369eb6c3}}},
	"canneal.simmedium":       {1048576, "Simulated annealing: pointer-chasing netlist routing", [digestThreads]threadDigest{{32002, 0x7d452543fe8a7ac3}, {32002, 0x223952bcc465bc03}, {32002, 0x679932d9435e61c3}}},
	"canneal.simlarge":        {2097152, "Simulated annealing: pointer-chasing netlist routing", [digestThreads]threadDigest{{48002, 0x5cbb270e9a5d1a43}, {48002, 0x2d44a0feee5b0e83}, {48002, 0x12ddaaed31d7fb43}}},
	"canneal.native":          {8388608, "Simulated annealing: pointer-chasing netlist routing", [digestThreads]threadDigest{{64002, 0x2f19b11ed5de1303}, {64002, 0x3ac71d3fe7472183}, {64002, 0xa732ea406710edc3}}},
	"fluidanimate.simsmall":   {524288, "SPH fluid simulation: grid-neighbour particle sweeps", [digestThreads]threadDigest{{12104, 0x738cc9115214c665}, {10088, 0x21afb48f376e4ee5}, {9576, 0x2e2debe07f3831e5}}},
	"fluidanimate.simmedium":  {1179648, "SPH fluid simulation: grid-neighbour particle sweeps", [digestThreads]threadDigest{{27368, 0xcd8d99def3c2d6e5}, {22808, 0xd300c382de411925}, {21656, 0xeb8debd1d4aa5b25}}},
	"fluidanimate.simlarge":   {3145728, "SPH fluid simulation: grid-neighbour particle sweeps", [digestThreads]threadDigest{{65032, 0x2641c0cfdac0165}, {65032, 0xaa0e5e5368bd0165}, {62984, 0xe446a589f56a4565}}},
	"fluidanimate.native":     {16777216, "SPH fluid simulation: grid-neighbour particle sweeps", [digestThreads]threadDigest{{359048, 0x26bb7487ac02c765}, {359048, 0x879a68af075bc765}, {318216, 0x2e37eb03f630d165}}},
	"streamcluster.simsmall":  {558336, "Online clustering: k-median of streaming points", [digestThreads]threadDigest{{17760, 0x3997c27d88c241eb}, {17747, 0xb1e52aa5b3da17b1}, {17747, 0x2a54c03b4ec33b39}}},
	"streamcluster.simmedium": {1115392, "Online clustering: k-median of streaming points", [digestThreads]threadDigest{{35505, 0x7b83f7d4a0453479}, {35505, 0x701e030a712cca31}, {35492, 0x9e8527543b5ae5ab}}},
	"streamcluster.simlarge":  {2230144, "Online clustering: k-median of streaming points", [digestThreads]threadDigest{{98318, 0x3bca0df6e87ceab}, {98300, 0x27280d5b92aecc39}, {98300, 0x66426454b0d65db1}}},
	"streamcluster.native":    {8915456, "Online clustering: k-median of streaming points", [digestThreads]threadDigest{{502460, 0x81654035c1335c8b}, {502437, 0xd70e7ea881e00ea1}, {502437, 0xb4221261f083dce9}}},
	"x264.simsmall":           {61440, "Video encoding using H264 codec", [digestThreads]threadDigest{{3250, 0x754d5032228103ee}, {3250, 0x79e8915d2ef383ee}, {3250, 0xb10135d0b05749ee}}},
	"x264.simmedium":          {61440, "Video encoding using H264 codec", [digestThreads]threadDigest{{3250, 0x754d5032228103ee}, {3250, 0x79e8915d2ef383ee}, {3250, 0xb10135d0b05749ee}}},
	"x264.simlarge":           {61440, "Video encoding using H264 codec", [digestThreads]threadDigest{{3250, 0x754d5032228103ee}, {3250, 0x79e8915d2ef383ee}, {3250, 0xb10135d0b05749ee}}},
	"x264.native":             {2088960, "Video encoding using H264 codec", [digestThreads]threadDigest{{116958, 0x3e05e5826ff2f29e}, {107212, 0x7f586bab738da846}, {107212, 0xcf1d9cd370c7c046}}},
}
