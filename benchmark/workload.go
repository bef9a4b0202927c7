package main

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// Sizes shared by every workload. Keys are 16 bytes, values 1 KiB, and
// the preload is R records: about 100 MiB of user data against the
// 2 MiB block cache of lsm.DefaultConfig, so the data is 50 times the
// cache.
const (
	keySize      = 16
	valueSize    = 1024
	valueHeader  = 16
	records      = 100_000
	verifyKeys   = 1000
	spaceSamples = 50
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	opScan
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "delete", "scan"}

// spec is one workload. Op counts are fixed functions of -seconds (never
// durations), so every device-clock number is a function of the seed
// alone.
type spec struct {
	name string
	why  string
	// clients is the number of closed-loop clients; tcp puts them behind
	// server.Serve and sealclient on loopback, one connection each.
	clients int
	tcp     bool
	// valueThreshold is lsm.Config.ValueThreshold (0 = values inline).
	valueThreshold int
	// opsPerSecond sizes the measured phase: each client runs
	// opsPerSecond × seconds operations. The figures keep the ratios of
	// the issue's op counts (200k : 2M : 150k : 200k per client : 600k)
	// and make one nominal second cost about one wall second on the
	// 2-core reference box.
	opsPerSecond int
	// warmupPerSecond sizes the untimed warm-up reads that end set-up.
	warmupPerSecond int
	// keySpace is how many key indexes the workload can touch, as a
	// multiple of R in halves (2 = R, 3 = 1.5 R).
	keySpaceHalves int
	// gen materialises client c's op stream.
	gen func(g *generator, c, n int) opStream
}

// The five workloads. Names are permanent: BENCHMARK.json and every
// later performance claim refer to them.
var specs = []spec{
	{
		name:    "put_random",
		why:     "random-order load then 90% put / 10% delete over 1.5 R keys: the write path (memtable, wal, flush, set compaction, dband, smr) does the work, the read path none",
		clients: 1, opsPerSecond: 16_000, keySpaceHalves: 3,
		gen: func(g *generator, _, n int) opStream {
			s := newOpStream(n)
			for i := 0; i < n; i++ {
				k := opPut
				if g.rng.Intn(10) == 0 {
					k = opDelete
				}
				s.add(k, uint32(g.rng.Intn(g.records*3/2)), 0)
			}
			return s
		},
	},
	{
		name:    "get_zipf",
		why:     "zipfian point reads over data 50x the 2 MiB block cache: version lookup, bloom, table and block cache, sstable and platter reads do the work, the write path none",
		clients: 1, opsPerSecond: 160_000, warmupPerSecond: 8_000, keySpaceHalves: 2,
		gen: func(g *generator, _, n int) opStream {
			s := newOpStream(n)
			for i := 0; i < n; i++ {
				s.add(opGet, g.zipfKey(), 0)
			}
			return s
		},
	},
	{
		name:    "scan_short",
		why:     "YCSB-E, 95% scans of 1-100 records from a zipfian start / 5% inserts: the same sstable and cache layers as get_zipf but through the merging iterator, rewarding set contiguity",
		clients: 1, opsPerSecond: 12_000, keySpaceHalves: 3,
		gen: func(g *generator, _, n int) opStream {
			s := newOpStream(n)
			next := uint32(g.records)
			for i := 0; i < n; i++ {
				if g.rng.Intn(20) == 0 && int(next) < g.records*3/2 {
					s.add(opPut, next, 0) // an insert: the key is new
					next++
					continue
				}
				s.add(opScan, g.zipfKey(), uint16(1+g.rng.Intn(100)))
			}
			return s
		},
	},
	{
		name:    "tcp_hot_mixed",
		why:     "two closed-loop TCP clients, 50% get / 50% put on a 1,000-key hot set (half the block cache): engine reads hit memory, so sealclient, wire, server, coalescer and the engine mutex dominate",
		clients: 2, tcp: true, opsPerSecond: 16_000, keySpaceHalves: 2,
		gen: func(g *generator, c, n int) opStream {
			// Either client reads any hot key, but writes only the keys
			// of its own parity, so every key has a single writer and a
			// read can be checked against that writer's versions.
			s := newOpStream(n)
			for i := 0; i < n; i++ {
				if g.rng.Intn(2) == 0 {
					s.add(opGet, g.hotKey(g.rng.Intn(hotKeys)), 0)
				} else {
					s.add(opPut, g.hotKey(2*g.rng.Intn(hotKeys/2)+c), 0)
				}
			}
			return s
		},
	},
	{
		name:    "vlog_mixed",
		why:     "YCSB-A, 50% get / 50% put zipfian with every 1 KiB value separated (ValueThreshold 512): vlog append, pointer chase and vlog GC do the work, set compaction carries only pointers",
		clients: 1, valueThreshold: 512, opsPerSecond: 48_000, keySpaceHalves: 2,
		gen: func(g *generator, _, n int) opStream {
			s := newOpStream(n)
			for i := 0; i < n; i++ {
				k := opGet
				if g.rng.Intn(2) == 0 {
					k = opPut
				}
				s.add(k, g.zipfKey(), 0)
			}
			return s
		},
	},
}

// preloadSeed fixes the order in which the records are loaded.
const preloadSeed = 0x5ea1db

// hotKeys is the size of tcp_hot_mixed's hot set: 1,000 keys of 1 KiB
// are about 1 MiB, half the block cache.
const hotKeys = 1000

// hotKey is hot key j: index 100·j at R = 100,000, so the hot set is
// spread evenly over the preloaded indexes.
func (g *generator) hotKey(j int) uint32 { return uint32(j * (g.records / hotKeys)) }

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// opStream is a client's whole measured phase, materialised before the
// clock starts so generation costs nothing inside it.
type opStream struct {
	kind []opKind
	key  []uint32
	arg  []uint16 // scan length
}

func newOpStream(n int) opStream {
	return opStream{kind: make([]opKind, 0, n), key: make([]uint32, 0, n), arg: make([]uint16, 0, n)}
}

func (s *opStream) add(k opKind, key uint32, arg uint16) {
	s.kind = append(s.kind, k)
	s.key = append(s.key, key)
	s.arg = append(s.arg, arg)
}

func (s *opStream) len() int { return len(s.kind) }

// inputs is everything a run feeds the store, all derived from the seed.
type inputs struct {
	preload []uint32   // key indexes in load order
	warmup  []uint32   // keys read, untimed, at the end of set-up
	streams []opStream // one per client
	verify  []uint32   // keys re-read after the reopen
}

// generator derives a run's inputs from its seed.
type generator struct {
	rng     *rand.Rand
	records int
	zipf    *zipfian
	salt    uint64
}

func makeInputs(sp *spec, seed int64, recs, opsPerClient, warmup int) inputs {
	g := &generator{rng: rand.New(rand.NewSource(seed)), records: recs, zipf: newZipfian(recs)}
	g.salt = g.rng.Uint64()
	var in inputs
	// The load order is random but the same for every seed: the shape of
	// the tree after the load (which sets exist, how much dead space they
	// hold) moves space_amp by 10% and scan device time by 10% between
	// load orders, which would drown any change in them. The seed varies
	// everything after the load.
	in.preload = make([]uint32, recs)
	for i, p := range rand.New(rand.NewSource(preloadSeed)).Perm(recs) {
		in.preload[i] = uint32(p)
	}
	in.warmup = make([]uint32, warmup)
	for i := range in.warmup {
		in.warmup[i] = g.zipfKey()
	}
	for c := 0; c < sp.clients; c++ {
		in.streams = append(in.streams, sp.gen(g, c, opsPerClient))
	}
	space := recs * sp.keySpaceHalves / 2
	in.verify = make([]uint32, verifyKeys)
	for i := range in.verify {
		// Half anywhere in the key space, half among the keys the
		// measured phase touched.
		in.verify[i] = uint32(g.rng.Intn(space))
		if s := in.streams[g.rng.Intn(len(in.streams))]; i%2 == 1 && s.len() > 0 {
			in.verify[i] = s.key[g.rng.Intn(s.len())]
		}
	}
	return in
}

// zipfKey draws a scrambled-zipfian key index over the preloaded
// records: rank by Gray et al.'s generator (YCSB's), then hashed so the
// popular keys are spread over the key range and differ between seeds.
func (g *generator) zipfKey() uint32 {
	return uint32(mix64(uint64(g.zipf.next(g.rng))+g.salt) % uint64(g.records))
}

// zipfian is YCSB's zipfian generator with θ = 0.99; rank 0 is the most
// popular. The benchmark keeps its own copy so that a change to
// internal/ycsb cannot change the benchmark's inputs.
type zipfian struct {
	items            float64
	theta, zetan     float64
	alpha, eta, half float64
}

func newZipfian(n int) *zipfian {
	const theta = 0.99
	z := &zipfian{items: float64(n), theta: theta}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/z.items, 1-theta)) / (1 - zeta2/z.zetan)
	z.half = math.Pow(0.5, theta)
	return z
}

func (z *zipfian) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	return int(z.items * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// mix64 is the splitmix64 finaliser, a bijection on 64-bit integers.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const hexDigits = "0123456789abcdef"

// putKey writes key index idx as 16 hex digits of its mix64 image, so
// consecutive indexes land far apart in key order and a new key falls
// anywhere in the range.
func putKey(dst []byte, idx uint32) []byte {
	h := mix64(uint64(idx) + 1)
	for i := keySize - 1; i >= 0; i-- {
		dst[i] = hexDigits[h&15]
		h >>= 4
	}
	return dst[:keySize]
}

// pool is the fixed pseudo-random byte pool value bodies are sliced
// from: a value costs one header write and one memcpy to make, and its
// bytes do not compress or repeat.
var pool = func() []byte {
	p := make([]byte, 64<<10+valueSize)
	rand.New(rand.NewSource(0x5ea1db)).Read(p)
	return p
}()

func bodyOffset(idx, ver uint32) int {
	return int(mix64(uint64(idx)<<32|uint64(ver)) % uint64(len(pool)-valueSize))
}

// putValue writes the self-verifying value of (idx, ver) into dst: a
// 16-byte header naming the key index and the per-key version, then
// pool bytes chosen by both.
func putValue(dst []byte, idx, ver uint32) []byte {
	binary.LittleEndian.PutUint64(dst[0:8], uint64(idx))
	binary.LittleEndian.PutUint64(dst[8:16], uint64(ver))
	off := bodyOffset(idx, ver)
	copy(dst[valueHeader:valueSize], pool[off:])
	return dst[:valueSize]
}

// valueVersion checks a value's length and header against the key it
// was read under and returns the version it carries.
func valueVersion(v []byte, idx uint32) (uint32, bool) {
	if len(v) != valueSize || binary.LittleEndian.Uint64(v[0:8]) != uint64(idx) {
		return 0, false
	}
	ver := binary.LittleEndian.Uint64(v[8:16])
	return uint32(ver), ver != 0 && ver <= math.MaxUint32
}

// valueIntact checks every byte of a value.
func valueIntact(v []byte, idx uint32) bool {
	ver, ok := valueVersion(v, idx)
	if !ok {
		return false
	}
	off := bodyOffset(idx, ver)
	return string(v[valueHeader:]) == string(pool[off:off+valueSize-valueHeader])
}
